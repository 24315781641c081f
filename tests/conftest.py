"""Shared test plumbing: session timing, suite ordering, record lookups, the
registry of metric names, views of a run's or a network's parameters, a
network's frozen forward stopped at any layer, a network's taps as a dict,
MLP specs without activations, and Spearman rank correlation.

The acceptance module asserts a wall-clock budget for the whole suite, so
it must run last; everything else keeps collection order.
"""

import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedlens.config import ExperimentConfig, validate_config
from fedlens.dumps import model_filename
from fedlens.fed import run_federation
from fedlens.metrics import walk_taps
from fedlens.nn import _finite, load_params

_SESSION_START = time.monotonic()

# Exact metric names plus prefix families (probe sources, relative changes).
REGISTERED_METRICS = frozenset({
    "sigma_w", "sigma_b", "tr_w", "tr_b", "tr_t", "alignment",
    "train_acc", "test_acc", "probe_acc",
    "dist_l1_norm", "dist_mse", "dist_l1", "dist_cos",
    "param_dist_l1_norm", "param_dist_mse", "param_dist_l1", "param_dist_cos",
})
METRIC_PREFIXES = ("probe_acc_m", "rel_")


def is_registered(name: str) -> bool:
    return name in REGISTERED_METRICS or name.startswith(METRIC_PREFIXES)


def session_elapsed() -> float:
    return time.monotonic() - _SESSION_START


def pytest_collection_modifyitems(config, items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def small_config(clients, scenario="baseline", metrics=None, **fed):
    """A validated config of the 6-8-8-3 test network (mlp_specs(6, [8, 8], 3))
    with `clients` clients, 5 evaluation rows per class, the given [metrics]
    values and the given [fed] values."""
    cfg = ExperimentConfig(scenario=scenario)
    cfg.data = replace(cfg.data, clients=clients, classes=3, input_dim=6)
    cfg.model = replace(cfg.model, hidden=(8, 8))
    cfg.metrics = replace(cfg.metrics, eval_per_class=5, **(metrics or {}))
    cfg.fed = replace(cfg.fed, **fed)
    validate_config(cfg)
    return cfg


def select(records, round=None, phase=None, client=None, layer=None, metric=None):
    """Records matching every given field; each filter is a value or a set."""

    def match(value, want):
        if want is None:
            return True
        if isinstance(want, (set, frozenset, list, tuple, range)):
            return value in want
        return value == want

    return [r for r in records
            if match(r.round, round) and match(r.phase, phase)
            and match(r.client, client) and match(r.layer, layer)
            and match(r.metric, metric)]


def value_map(records):
    """Index records by (round, phase, client, layer, metric)."""
    return {(r.round, r.phase, r.client, r.layer, r.metric): r.value
            for r in records}


def mean_over(records, metric, layers=None, rounds=None, phase=None, clients=None):
    """Mean value per layer of one metric, optionally restricted."""
    chosen = select(records, metric=metric, phase=phase, layer=layers,
                    round=rounds, client=clients)
    per_layer = {}
    for r in chosen:
        per_layer.setdefault(r.layer, []).append(r.value)
    return {layer: sum(vals) / len(vals) for layer, vals in sorted(per_layer.items())}


def param_views(net):
    """Each layer's parameter tensors as views of `net.values`: per map, its
    weight, then its bias."""
    return [[t for w, b, _, _ in maps for t in (w, b)] for maps in net._maps]


def frozen_forward(net, h, stop):
    """Outputs of layers 1..stop on the rows of h: `Network.forward`'s loop
    stopped early, with its per-layer finite check."""
    for idx in range(stop):
        h = _finite(net._layer_forward(idx, h, keep_cache=False)[0], idx)
    return h


def all_taps(net, x, labels, batch_size=256):
    """Every tap of one network over x, 0 through L-1, as {tap index:
    FeatureMatrix}."""
    return {fm.layer: fm for fm, in walk_taps((net,), ("pre",), x, labels,
                                                range(net.num_layers), batch_size)}


def linear_hidden(specs):
    """`specs` with each `linear_relu` layer made `linear`: an MLP without
    activations, which `mlp_specs` does not build."""
    return [s._replace(kind="linear") if s.kind == "linear_relu" else s for s in specs]


def last_round_vectors(cfg, datasets):
    """Run a federation with model snapshots on; return (records, pre, post).

    pre and post hold each client's locally trained and spliced vectors of
    the last round, read back from that round's `.fpnv` snapshots, so the
    last round must be an evaluation round.
    """
    r = cfg.fed.rounds
    assert r % cfg.fed.eval_cadence == 0, "snapshots are written on eval rounds only"
    cfg = replace(cfg, output=replace(cfg.output, dump_models=True))
    with tempfile.TemporaryDirectory() as dump_dir:
        records = run_federation(cfg, datasets, dump_dir)
        pre, post = ([load_params(Path(dump_dir) / model_filename(r, m, phase)).values
                      for m in range(len(datasets))] for phase in ("pre", "post"))
    return records, pre, post


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    rx, ry = average_ranks(xs), average_ranks(ys)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((dx @ dx) * (dy @ dy))
    return float(dx @ dy / denom) if denom > 0 else 0.0
