"""Feature-quality diagnostics computed layer by layer.

The central quantities, for features z with labels over C observed classes:

* within-class trace   tr_w = (1/N) sum_c sum_i ||z_ci - mu_c||^2
* between-class trace  tr_b = (1/C) sum_c ||mu_c - mu_g||^2
* total trace          tr_t = (1/N) sum_i ||z_i - mu_g||^2
* normalized variances sigma_w = tr_w / tr_t and sigma_b = tr_b / tr_t

With balanced classes tr_t = tr_w + tr_b, so sigma_w + sigma_b = 1. Traces
are accumulated as sums of squared deviations, never as DxD covariance
matrices. Subspace alignment compares the row space of the class-mean matrix
against the input-space basis (top right singular vectors) of the weight
matrix that consumes those features; the score is the mean principal-angle
cosine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import MetricRecord
from .errors import ShapeError
from .nn import LayerSpec, Network, sgd_epochs
from .seeds import derive_seed

# class_stats values that every pre/post capture records per tap
FEATURE_STATS = ("sigma_w", "sigma_b", "tr_w", "tr_b", "tr_t")


@dataclass
class FeatureMatrix:
    """N feature rows with integer class labels and capture context."""

    values: np.ndarray
    labels: np.ndarray
    layer: int = -1
    phase: str = "pre"
    round: int = 0
    client: int = -1

    def __post_init__(self):
        self.values = linalg.as_matrix(self.values, "features")
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or len(self.labels) != len(self.values):
            raise ShapeError("labels must be one integer per feature row")
        if len(self.values) == 0:
            raise ShapeError("feature matrix needs at least one row")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def class_ids(labels) -> np.ndarray:
    """Sorted distinct class ids of a label array."""
    # a sort, not np.unique: numpy 2.4's unique imports numpy.ma, about 1 MB
    s = np.sort(labels)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


def class_stats(fm: FeatureMatrix):
    """Class means plus within/between/total scatter traces of a FeatureMatrix.

    Returns (mu, stats): mu holds one row per observed class, in class id
    order, and stats maps each FEATURE_STATS name to its value. If the total
    trace is zero (all rows identical) the normalized variances are zeros.
    """
    values, labels = fm.values, fm.labels
    n = len(values)
    ids = class_ids(labels)
    mu = np.empty((len(ids), values.shape[1]))
    tr_w = 0.0
    for i, c in enumerate(ids):
        rows = values[labels == c]
        mu[i] = rows.mean(axis=0)
        dev = rows - mu[i]
        tr_w += float((dev * dev).sum())
    tr_w /= n
    mu_global = values.mean(axis=0)
    diff = mu - mu_global
    tr_b = float((diff * diff).sum()) / len(ids)
    dev = values - mu_global
    tr_t = float((dev * dev).sum()) / n
    sigma = (0.0, 0.0) if tr_t == 0.0 else (tr_w / tr_t, tr_b / tr_t)
    return mu, dict(zip(FEATURE_STATS, (*sigma, tr_w, tr_b, tr_t)))


def pabs_alignment(class_means, next_weights) -> np.ndarray:
    """Principal-angle cosines between class-mean rows and weight input space.

    The class-mean matrix (C x D) contributes the basis of its row space; the
    weight matrix that consumes these features (out x D) contributes its top-C
    input-space basis: the right singular vectors of its C largest non-zero
    singular values, fewer when it has lower rank. The cosines are the
    singular values of the basis cross product, clipped into [0, 1]; there
    are none when either side has rank zero.
    """
    z = linalg.as_matrix(class_means, "class means")
    w = linalg.as_matrix(next_weights, "weights")
    if z.shape[1] != w.shape[1]:
        raise ShapeError(
            f"feature dim mismatch: class means {z.shape} vs weights {w.shape}")
    _, sz, vz = linalg.svd(z)
    basis_z = vz[:, :np.count_nonzero(sz)]
    _, sw, vw = linalg.svd(w)
    basis_w = vw[:, :min(len(z), np.count_nonzero(sw))]
    if basis_z.shape[1] == 0 or basis_w.shape[1] == 0:
        return np.zeros(0)
    return np.clip(linalg.svd(basis_w.T @ basis_z)[1], 0.0, 1.0)


def accuracy(logits, labels) -> float:
    """Fraction of argmax predictions matching labels; ties pick the lowest class."""
    logits = linalg.as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=int)
    if len(labels) != len(logits):
        raise ShapeError("labels must match logit rows")
    if len(labels) == 0:
        raise ShapeError("cannot score an empty batch")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def linear_probe(train_features: FeatureMatrix, test_features: FeatureMatrix,
                 epochs: int = 100, batch_size: int = 64, seed: int = 0) -> float:
    """Best test accuracy of a fresh linear classifier on frozen features.

    Plain SGD at rate 0.01 without momentum; test accuracy is evaluated after
    every epoch and the maximum over epochs is returned.
    """
    if train_features.dim != test_features.dim:
        raise ShapeError("train and test feature dims differ")
    c = int(max(train_features.labels.max(), test_features.labels.max())) + 1
    probe = Network([LayerSpec("linear", train_features.dim, c)])
    probe.init_random(derive_seed(seed, "probe-init"))
    best = 0.0
    for epoch in range(epochs):
        sgd_epochs(probe, train_features.values, train_features.labels, epochs=1,
                   lr=0.01, momentum=0.0, batch_size=batch_size,
                   seed=derive_seed(seed, "probe-epoch", epoch))
        logits = probe.forward(test_features.values)
        best = max(best, accuracy(logits, test_features.labels))
    return best


def pairwise_distances(a, b) -> dict:
    """Four scalar distances between two finite 2-D arrays of identical shape.

    Returns {"l1_norm", "mse", "l1", "cos"}: l1_norm averages
    |a-b| / (|a|+|b|) elementwise (0 where both are 0); mse and l1 are plain
    means; cos averages row-wise cosine similarity (1 when both rows are
    zero, 0 when exactly one is). The inputs are not checked for finiteness:
    a non-finite input makes mse non-finite, which its MetricRecord refuses.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dots = np.einsum("ij,ij->i", a, b)
    both_zero = (na == 0) & (nb == 0)
    one_zero = ((na == 0) | (nb == 0)) & ~both_zero
    safe = np.maximum(na * nb, np.finfo(np.float64).tiny)
    cos = dots / safe
    cos = np.where(both_zero, 1.0, cos)
    cosine = float(np.where(one_zero, 0.0, cos).mean())
    # two scratch buffers the size of one input: diff holds a - b, then
    # |a - b|, then the l1_norm ratios; sq holds (a - b)**2, then |a| + |b|
    diff = np.subtract(a, b)
    sq = np.multiply(diff, diff)
    mse = float(sq.mean())
    np.abs(diff, out=diff)
    l1 = float(diff.mean())
    # for finite a and b, |a| + |b| is exactly max(|a + b|, |a - b|): the one
    # whose signs agree rounds the same sum, and rounding is monotone
    denom = np.maximum(np.abs(np.add(a, b, out=sq), out=sq), diff, out=sq)
    # where denom is 0, a = b = 0 and diff already holds the 0 the ratio gets
    l1_norm = float(np.divide(diff, denom, out=diff, where=denom > 0).mean())
    return {"l1_norm": l1_norm, "mse": mse, "l1": l1, "cos": cosine}


def walk_taps(nets, phases, x, labels, tap_layers, batch_size: int = 256,
              round_index: int = 0, client: int = -1):
    """Walk networks of one architecture side by side over x, one layer at a time.

    Yields, for each requested tap in ascending order, a tuple of one
    FeatureMatrix per network, with phase `phases[i]` for `nets[i]`. Tap t
    is the input of layer t+1: 0 is the raw batch and L-1 the penultimate
    feature. A layer's output over all rows is one array, filled
    batch_size rows at a time (`Network.layer_outputs`): it is the tap, and
    its row blocks are the next layer's input, so the walk holds only the
    current tap of each network. It stops at the deepest requested tap.
    """
    labels = np.asarray(labels, dtype=int)
    num_layers = nets[0].num_layers
    tap_layers = sorted(set(int(t) for t in tap_layers))
    for t in tap_layers:
        if not 0 <= t < num_layers:
            raise ShapeError(f"tap {t} out of range 0..{num_layers - 1}")
    hs, depth = [nets[0]._check_batch(x)] * len(nets), 0
    for t in tap_layers:
        for layer in range(depth + 1, t + 1):
            hs = [net.layer_outputs(layer, h, batch_size) for net, h in zip(nets, hs)]
        depth = t
        yield tuple(FeatureMatrix(h, labels, layer=t, phase=phase, round=round_index,
                                  client=client) for h, phase in zip(hs, phases))


def extract_tap_features(net: Network, x, labels, tap: int, batch_size: int = 256,
                         phase: str = "pre", round_index: int = 0,
                         client: int = -1) -> FeatureMatrix:
    """Tap `tap` of one network over x, as its `walk_taps` yields it."""
    (fm,), = walk_taps((net,), (phase,), x, labels, (tap,), batch_size, round_index, client)
    return fm


def feature_records(fm: FeatureMatrix, weight=None, stats=FEATURE_STATS):
    """Feature-quality records of one tapped FeatureMatrix, keyed by its context.

    The matrix gives its round, phase, client and tap layer to its records.
    `stats` names the class_stats values to record. With `weight`, the first
    weight matrix of layer l+1, which consumes the features of tap l, an
    `alignment` record follows: the mean of the tap's class-mean cosines
    against it, 0.0 when there are none (a rank-zero side).
    """
    mu, values = class_stats(fm)
    out = [MetricRecord(fm.round, fm.phase, fm.client, fm.layer, name, values[name])
           for name in stats]
    if weight is not None:
        cosines = pabs_alignment(mu, weight)
        out.append(MetricRecord(fm.round, fm.phase, fm.client, fm.layer, "alignment",
                                float(cosines.mean()) if cosines.size else 0.0))
    return out


def distance_records(pre, post, round_index: int, client: int, layer: int,
                     prefix: str = ""):
    """The four pre/post distances as phase "delta" records named <prefix>dist_*."""
    return [MetricRecord(round_index, "delta", client, layer, f"{prefix}dist_{name}", value)
            for name, value in pairwise_distances(pre, post).items()]
