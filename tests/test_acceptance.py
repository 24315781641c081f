"""Acceptance battery: one test per advertised guarantee, in order.

Oracle suites (kernels, gradients, aggregation) run against independent
numpy-based reference computations. Phenomenon suites execute the shipped
presets over three seeds and assert the directional effects at their stated
thresholds; every federated run is executed once per (experiment, seed) and
cached for all later tests in this module.
"""

import time

import numpy as np
from conftest import (last_round_vectors, mean_over, select, session_elapsed, small_config,
                      spearman, value_map)

from fedlens.analysis import read_csv, relative_change_records
from fedlens.config import parse_config, preset
from fedlens.data import generate_federation_data, make_domain_specs
from fedlens.dumps import metrics_from_dumps
from fedlens.fed import aggregate, client_round_seed
from fedlens.metrics import FeatureMatrix, class_stats, pabs_alignment
from fedlens.nn import LayerSpec, Network, mlp_specs, sgd_epochs
from fedlens.runner import execute, run_to_dir
from fedlens.seeds import derive_seed

SEEDS = (1, 2, 3)
CLIENTS = 4
PEN_TAP = 5  # input to the classifier of the default 6-layer network

_RUNS = {}


def _preset_run(preset_name, sub_name, seed, probe_rounds=()):
    key = (sub_name, seed)
    if key not in _RUNS:
        cfg = dict(preset(preset_name, seed=seed))[sub_name]
        if probe_rounds:
            cfg.metrics.probe_rounds = tuple(probe_rounds)
        _RUNS[key] = execute(cfg)
    return _RUNS[key]


def heterogeneous_run(seed):
    return _preset_run("baseline", "baseline", seed)


def iid_run(seed):
    return _preset_run("iid-control", "iid-control", seed)


def successive_run(seed, k):
    if k == 0:
        # keeping zero layers local is the plain federation; the unit suite
        # proves the two configurations produce bit-identical records
        return heterogeneous_run(seed)
    name = f"personalization-successive-k{k}"
    return _preset_run("personalization-successive", name, seed)


def pretrained_runs(seed):
    return (_preset_run("pretrained", "pretrained", seed),
            _preset_run("pretrained", "pretrained-random-init", seed))


def finetune_run(seed):
    return _preset_run("finetune", "finetune", seed,
                       probe_rounds=(22, 24, 26, 28, 30))


def eval_rounds(records):
    """The rounds a run captured, in order."""
    return sorted({r.round for r in records})


def majority(flags) -> bool:
    return sum(bool(f) for f in flags) >= 2


def rel_sigma_means(records):
    """Mean relative sigma_w change per tap over all eval rounds and clients."""
    rels = relative_change_records(records)
    return mean_over(rels, "rel_sigma_w")


def train_acc_gap_points(records):
    """Mean (pre - post) local train accuracy over rounds 5..25, in points."""
    vm = value_map(select(records, metric="train_acc"))
    rounds = [r for r in eval_rounds(records) if 5 <= r <= 25]
    diffs = [vm[(r, "pre", m, -1, "train_acc")]
             - vm[(r, "post", m, -1, "train_acc")]
             for r in rounds for m in range(CLIENTS)]
    return 100.0 * float(np.mean(diffs))


def dense_covariance_stats(values, labels):
    """Two-pass oracle: materialize DxD scatter matrices, then trace them."""
    n, d = values.shape
    classes = np.unique(labels)
    mu = {c: values[labels == c].mean(axis=0) for c in classes}
    mu_g = values.mean(axis=0)
    sw = np.zeros((d, d))
    for c in classes:
        dev = values[labels == c] - mu[c]
        sw += np.einsum("ni,nj->ij", dev, dev)
    sw /= n
    db = np.stack([mu[c] - mu_g for c in classes])
    sb = np.einsum("ci,cj->ij", db, db) / len(classes)
    dt = values - mu_g
    st = np.einsum("ni,nj->ij", dt, dt) / n
    tr_w, tr_b, tr_t = np.trace(sw), np.trace(sb), np.trace(st)
    return tr_w, tr_b, tr_t, tr_w / tr_t, tr_b / tr_t


def oracle_pabs(class_means, weights):
    """Brute-force subspace cosines via numpy's SVD."""

    def basis(mat, top):
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        cutoff = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int((s > cutoff).sum())
        return vt[:min(top, rank)].T

    bz = basis(class_means, class_means.shape[0])
    bw = basis(weights, class_means.shape[0])
    cos = np.linalg.svd(bw.T @ bz, compute_uv=False)
    return np.clip(cos, 0.0, 1.0)


TINY_CONFIG = """\
scenario = baseline

[data]
clients = 4
classes = 3
input_dim = 6
train_per_client = 30
test_per_client = 15
anchor_scale = 2.0

[model]
hidden = 8,8

[fed]
rounds = 4
local_epochs = 2
batch_size = 16
eval_cadence = 2
seed = 7

[metrics]
eval_per_class = 5

[output]
dir = {out_dir}
dump_features = true
dump_models = true
"""


def test_metric_kernels_match_independent_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        c = int(rng.integers(2, 11))
        n = int(rng.integers(4 * c, 201))
        d = int(rng.integers(2, 51))
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)  # every class observed
        values = rng.normal(size=(n, d)) + 3.0 * rng.normal(size=(c, d))[labels]
        _, cs = class_stats(FeatureMatrix(values, labels))
        want = dense_covariance_stats(values, labels)
        got = (cs["tr_w"], cs["tr_b"], cs["tr_t"], cs["sigma_w"], cs["sigma_b"])
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(abs(w), 1e-12)
    for _ in range(50):
        c = int(rng.integers(2, 9))
        per = int(rng.integers(2, 20))
        d = int(rng.integers(2, 30))
        labels = np.repeat(np.arange(c), per)
        values = rng.normal(size=(c * per, d)) + rng.normal(size=(c, d))[labels]
        _, cs = class_stats(FeatureMatrix(values, labels))
        assert abs(cs["sigma_w"] + cs["sigma_b"] - 1.0) <= 1e-8
    for _ in range(100):
        c = int(rng.integers(2, 9))
        d = int(rng.integers(c, 31))
        k = int(rng.integers(c, 21))
        mu = rng.normal(size=(c, d))
        w = rng.normal(size=(k, d))
        got = np.sort(pabs_alignment(mu, w))[::-1]
        want = np.sort(oracle_pabs(mu, w))[::-1]
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-8
    assert time.monotonic() - start < 30.0


def test_training_gradients_and_aggregation_invariants():
    # central finite differences across every layer kind
    arch = [LayerSpec("linear_relu", 5, 6),
            LayerSpec("residual", 6, 6, inner_width=7),
            LayerSpec("linear", 6, 3)]
    net = Network(arch).init_random(seed=101)
    rng = np.random.default_rng(102)
    x = rng.normal(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    _, grad = net.loss_and_grad(x, labels)
    theta = net.flatten()
    h = 1e-6
    for idx in rng.choice(theta.size, size=48, replace=False):
        probe = theta.copy()
        probe[idx] += h
        net.values[...] = probe
        up = net.loss_and_grad(x, labels)[0]
        probe[idx] -= 2 * h
        net.values[...] = probe
        down = net.loss_and_grad(x, labels)[0]
        fd = (up - down) / (2 * h)
        g = grad[idx]
        assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-6)

    # a one-client federation must reproduce plain centralized training
    arch2 = mlp_specs(6, [8, 8], 3)
    specs = make_domain_specs(1, 3, 6, seed=202, anchor_scale=2.0)
    datasets = generate_federation_data(specs, 60, 30, seed=202)
    cfg = small_config(1, local_epochs=2, rounds=4, batch_size=16, eval_cadence=4,
                       seed=203)
    _, _, post = last_round_vectors(cfg, datasets)
    central = Network(arch2).init_random(derive_seed(203, "init"))
    for r in range(1, 5):
        sgd_epochs(central, datasets[0].train_x, datasets[0].train_labels, epochs=2,
                   lr=cfg.fed.lr, momentum=cfg.fed.momentum, batch_size=16,
                   seed=client_round_seed(203, 0, r))
    assert post[0].tobytes() == central.flatten().tobytes()

    # aggregation: permutation invariance (bitwise) and convexity envelope
    rng2 = np.random.default_rng(104)
    for _ in range(100):
        k = int(rng2.integers(2, 7))
        rows = [rng2.normal(size=23) for _ in range(k)]
        counts = rng2.integers(1, 1000, size=k).tolist()
        base = aggregate(rows, counts)
        perm = rng2.permutation(k)
        again = aggregate([rows[i] for i in perm], [counts[i] for i in perm])
        assert again.tobytes() == base.tobytes()
        stack = np.stack(rows)
        assert np.all(base >= stack.min(axis=0))
        assert np.all(base <= stack.max(axis=0))


def test_heterogeneous_aggregation_performance_drop():
    start = time.monotonic()
    gaps = {s: (train_acc_gap_points(heterogeneous_run(s)),
                train_acc_gap_points(iid_run(s))) for s in SEEDS}
    elapsed = time.monotonic() - start
    flags = [het >= 5.0 and iid < 1.0 for het, iid in gaps.values()]
    assert majority(flags), gaps
    assert elapsed < 180.0


def test_feature_disruption_grows_with_depth():
    rhos = []
    for s in SEEDS:
        means = rel_sigma_means(heterogeneous_run(s))
        taps = sorted(means)
        assert taps == list(range(PEN_TAP + 1))
        rhos.append(spearman(taps, [means[t] for t in taps]))
    assert majority(r >= 0.5 for r in rhos), rhos


def test_feature_vs_parameter_distance_depth_trends():
    detail = []
    flags = []
    for s in SEEDS:
        res = heterogeneous_run(s)
        feat = mean_over(res, "dist_l1_norm", phase="delta")
        feat_taps = [t for t in sorted(feat) if t >= 1]  # tap 0 is the raw input
        rho_feat = spearman(feat_taps, [feat[t] for t in feat_taps])
        par = mean_over(res, "param_dist_l1_norm", phase="delta")
        layers = [l for l in sorted(par) if l <= PEN_TAP]  # classifier excluded
        rho_par = spearman(layers, [par[l] for l in layers])
        detail.append((rho_feat, rho_par))
        flags.append(rho_feat > 0.0 and rho_par <= 0.0)
    assert majority(flags), detail


def test_alignment_change_peaks_at_classifier_interface():
    res = heterogeneous_run(SEEDS[0])
    vm = value_map(relative_change_records(res))
    rounds = [r for r in eval_rounds(res) if r > 5]
    hits = 0
    for r in rounds:
        pen = np.mean([vm[(r, "delta", m, PEN_TAP, "rel_alignment")]
                       for m in range(CLIENTS)])
        earlier = np.mean([vm[(r, "delta", m, t, "rel_alignment")]
                           for m in range(CLIENTS) for t in range(PEN_TAP)])
        hits += pen > earlier
    assert hits >= 0.7 * len(rounds), (hits, len(rounds))


def test_personalization_depth_reduces_penultimate_disruption():
    detail = []
    flags = []
    for s in SEEDS:
        vals = [rel_sigma_means(successive_run(s, k))[PEN_TAP]
                for k in (0, 2, 4)]
        detail.append(vals)
        flags.append(vals[0] >= vals[1] >= vals[2])
    assert majority(flags), detail


def test_pretrained_init_reduces_feature_disruption():
    detail = []
    flags = []
    for s in SEEDS:
        pre, rnd = pretrained_runs(s)
        assert eval_rounds(pre) == eval_rounds(rnd)  # matched rounds
        v_pre = float(np.mean(list(rel_sigma_means(pre).values())))
        v_rnd = float(np.mean(list(rel_sigma_means(rnd).values())))
        detail.append((v_pre, v_rnd))
        flags.append(v_pre < v_rnd)
    assert majority(flags), detail


def test_classifier_finetune_recovers_accuracy_and_alignment():
    detail = []
    flags = []
    for s in SEEDS:
        res = finetune_run(s)
        vm = value_map(res)
        cells = [(r, m) for r in eval_rounds(res) if r > 5
                 for m in range(CLIENTS)]
        hits = sum(
            1 for r, m in cells
            if vm[(r, "tuned", m, -1, "train_acc")]
            > vm[(r, "post", m, -1, "train_acc")]
            and vm[(r, "tuned", m, PEN_TAP, "alignment")]
            > vm[(r, "post", m, PEN_TAP, "alignment")])
        detail.append((hits, len(cells)))
        flags.append(hits >= 0.9 * len(cells))
    assert majority(flags), detail


def test_post_aggregation_features_generalize_better():
    detail = []
    flags = []
    for s in SEEDS:
        res = finetune_run(s)
        vm = value_map(res)
        rounds = [r for r in (22, 24, 26, 28, 30) if r in eval_rounds(res)]
        assert rounds
        ok = 0
        total = 0
        for d in range(CLIENTS):
            post = np.mean([vm[(r, "post", d, PEN_TAP, "probe_acc")]
                            for r in rounds])
            for m in range(CLIENTS):
                if m == d:
                    continue
                foreign = np.mean([vm[(r, "pre", d, PEN_TAP, f"probe_acc_m{m}")]
                                   for r in rounds])
                total += 1
                ok += post > foreign
        detail.append((ok, total))
        flags.append(ok == total)
    assert majority(flags), detail


def test_deterministic_outputs_and_dump_roundtrip(tmp_path):
    cfg = parse_config(TINY_CONFIG.format(out_dir=tmp_path / "out"))
    out = run_to_dir(cfg)
    first = {name: (out / name).read_bytes()
             for name in ("metrics.csv", "accuracy.csv", "manifest.txt")}
    out2 = run_to_dir(cfg)
    for name, blob in first.items():
        assert (out2 / name).read_bytes() == blob

    records, warnings = metrics_from_dumps(out / "dumps")
    assert warnings == []
    recomputed = value_map(records)
    original = value_map(read_csv(out / "metrics.csv"))
    shared = set(recomputed) & set(original)
    assert shared
    assert ({key: repr(recomputed[key]) for key in shared}
            == {key: repr(original[key]) for key in shared})

    assert session_elapsed() < 600.0
