"""Capture: the layer walk that feeds every feature metric and dump.

Golden hashes pin the bytes of whole runs, the walk's taps are checked bit
for bit against `Network.forward`, and a tracemalloc guard bounds the memory
one evaluation round's capture holds.
"""

import ctypes
import hashlib
import math
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import frozen_forward, param_views
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlens.analysis import read_csv
from fedlens.config import ExperimentConfig, render_config, validate_config
from fedlens.errors import NumericError, ShapeError
from fedlens.fed import run_federation
from fedlens.metrics import walk_taps
from fedlens.nn import Network, mlp_specs
from fedlens.runner import build_datasets, run_to_dir
from test_cli import package_env


def tiny_config(out_dir, name):
    """Two clients, two eval rounds; eval subsets of 300 or 270 rows, so the
    walk crosses a 256-row batch boundary. "plain-skip" keeps layer 2 local;
    "residual-finetune" fine-tunes, probes and dumps models too;
    "pretrained-successive" pretrains on the pooled data, keeps layer 1
    local and dumps models."""
    residual = name.startswith("residual")
    scenario = {"plain-skip": "personalization", "residual-finetune": "finetune",
                "pretrained-successive": "pretrained"}[name]
    cfg = ExperimentConfig(scenario=scenario)
    d = cfg.data
    d.clients, d.classes, d.input_dim = 2, 3, 6
    d.train_per_client = d.test_per_client = 300
    cfg.model.hidden = (8, 8, 8) if residual else (8, 7)
    cfg.model.residual, cfg.model.residual_width, cfg.model.residual_inner = residual, 5, 3
    f = cfg.fed
    f.rounds, f.local_epochs, f.batch_size, f.eval_cadence, f.seed = 2, 1, 32, 1, 5
    if name == "plain-skip":
        f.personalization = "skip:2"
    if name == "pretrained-successive":
        f.personalization, f.pretrain_epochs = "successive:1", 2
    mt = cfg.metrics
    mt.eval_per_class = 90 if residual else 100
    if residual:
        mt.probe_rounds, mt.probe_epochs = (2,), 3
        mt.finetune_epochs, mt.finetune_batch = 2, 16
    cfg.output.dir = str(out_dir)
    cfg.output.dump_features, cfg.output.dump_models = True, name != "plain-skip"
    validate_config(cfg)
    return cfg


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out_dir: Path):
    """sha256 of each CSV, plus one over the sorted (name, sha256) dump list."""
    dumps = sorted((out_dir / "dumps").iterdir())
    listing = "".join(f"{p.name} {sha256(p)}\n" for p in dumps)
    return {"metrics.csv": sha256(out_dir / "metrics.csv"),
            "accuracy.csv": sha256(out_dir / "accuracy.csv"),
            "dumps": (len(dumps), hashlib.sha256(listing.encode()).hexdigest())}


def blas_core():
    """The CPU core that numpy's bundled OpenBLAS picked its kernels for, or
    None when numpy bundles no OpenBLAS that reports it."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    lib = next(libs.glob("libscipy_openblas*.so"), None)
    corename = lib and getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if not corename:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# The CSV digests of the first two runs were computed before capture became a
# per-layer walk, when each model's taps came from one `Network.forward` per
# 256-row batch; the pretrained run's before client parameters became plain
# arrays. The dumps digests date from the float64 FPLF payload, which holds
# every bit of the run's features, so they may move with the OpenBLAS kernel;
# they were taken on GOLDEN_CORE. Any change to a captured byte, to the set of
# dump files or to a metric value shows here.
GOLDEN_CORE = "SkylakeX"
GOLDEN_RUNS = {
    "plain-skip": {
        "metrics.csv": "739766548b4be4480152d3a40e02478ec07cb0050ec6382f8d52b6943a45ed45",
        "accuracy.csv": "57e8ef60a93b7d3c7155664264a563a3f6c58989530f5a8685a6fb46e5f022af",
        "dumps": (24, "8df08fa91e595dc1a26c99554bfff2c6b90f77585c328b7381d4a38af8a7914c"),
    },
    "residual-finetune": {
        "metrics.csv": "fe788e980867afbbe615227676394a3bd8b6b6dce14d55c0e82ffb9ce74040dd",
        "accuracy.csv": "e774362b99cd546ed353b720a71500b41bc0d50507d4d7a522e0fcad6c65563f",
        "dumps": (40, "09b143f933d670df3685c37278cf9ca914794d2930afde0fb0dfde55e2fc4ca9"),
    },
    "pretrained-successive": {
        "metrics.csv": "71f95827f2f5d8d94c0ebae385a8908bdd99241ffb3ce104e331ac5b3142c42a",
        "accuracy.csv": "2c444e47ba6698953aedeb16623e2785bee5f597862f4e50ebb7e37b34815002",
        "dumps": (32, "8ccebc05e5092a1d91ca593b6b0d3d16699449aa3e1404f4bf46f66059f0080b"),
    },
}


def test_capture_outputs_match_golden_hashes(tmp_path):
    for name, want in GOLDEN_RUNS.items():
        out_dir = tmp_path / name
        run_to_dir(tiny_config(out_dir, name))
        assert output_digests(out_dir) == want, (
            f"{name}: pinned on OpenBLAS core {GOLDEN_CORE}, "
            f"run on {blas_core() or 'an unknown core'}")


# Records of two OpenBLAS kernels may differ in their last bits, by at most
# this relative gap: a 30-round baseline run measured 5.9e-14 between the
# Haswell and SkylakeX kernels. Bytes are identical per kernel only.
KERNEL_TOLERANCE = 1e-9
# prints the core the child's OpenBLAS runs on, then runs a config
KERNEL_CHILD = ("import sys\n"
                "sys.path.insert(0, sys.argv[2])\n"
                "from test_capture import blas_core\n"
                "from fedlens.cli import main\n"
                "print(blas_core())\n"
                "sys.exit(main(['run', sys.argv[1]]))\n")


def test_records_agree_across_blas_kernels(tmp_path):
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels only")
    native = blas_core()
    if native is None:
        pytest.skip("numpy's OpenBLAS does not report its core")
    # OpenBLAS reports its Prescott kernels as Katmai
    if native in ("Prescott", "Katmai"):
        pytest.skip("the host core runs the Prescott kernels already")
    tables, ran_on = [], []
    for core in (native, "Prescott"):
        out_dir = tmp_path / core
        path = tmp_path / f"{core}.cfg"
        path.write_text(render_config(tiny_config(out_dir, "plain-skip")))
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_CHILD, str(path), str(Path(__file__).parent)],
            env=package_env(OPENBLAS_CORETYPE=core), check=True, capture_output=True,
            text=True)
        ran_on.append(proc.stdout.splitlines()[0])
        tables.append({r.sort_key(): r.value for name in ("metrics.csv", "accuracy.csv")
                       for r in read_csv(out_dir / name)})
    assert ran_on[0] == native and ran_on[1] != native, ran_on
    native_rows, other_rows = tables
    assert native_rows.keys() == other_rows.keys()
    for key, value in native_rows.items():
        assert math.isclose(other_rows[key], value, rel_tol=KERNEL_TOLERANCE), key


# mlp_specs keywords of each layer kind; the residual net's hidden layers 2
# and 3 are residual blocks of three maps
KINDS = {"linear": dict(activation="linear"),
         "linear_relu": dict(activation="relu"),
         "residual": dict(residual=True, residual_width=3, residual_inner=3)}


def walk_case(draw, kind, seed):
    """Two networks of one drawn architecture, rows crossing 256-row batches, and taps."""
    specs = mlp_specs(4, [5, 5, 5], 3, **KINDS[kind])
    nets = [Network(specs).init_random(seed + i) for i in range(2)]
    rows = draw(st.sampled_from([1, 255, 256, 257, 600]))
    rng = np.random.default_rng(seed)
    x, labels = rng.normal(size=(rows, 4)), rng.integers(0, 3, size=rows)
    taps = draw(st.sets(st.integers(0, len(specs) - 1), min_size=1))
    return nets, x, labels, taps


def forward_taps(net, x):
    """Each tap as the forward loop computes it on x's 256-row batches, joined:
    tap t is the output of layers 1..t."""
    return [np.concatenate([frozen_forward(net, x[lo:lo + 256], t)
                            for lo in range(0, len(x), 256)])
            for t in range(net.num_layers)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 999))
def test_walk_taps_equal_forward_taps_bit_for_bit(data, kind, seed):
    nets, x, labels, taps = walk_case(data.draw, kind, seed)
    walked = list(walk_taps(nets, ("pre", "post"), x, labels, taps, round_index=3, client=1))
    assert [pair[0].layer for pair in walked] == sorted(taps)
    for i, net in enumerate(nets):
        want = forward_taps(net, x)
        for pair in walked:
            fm = pair[i]
            assert (fm.phase, fm.round, fm.client) == (("pre", "post")[i], 3, 1)
            assert fm.values.tobytes() == want[fm.layer].tobytes()
            assert np.array_equal(fm.labels, labels)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 999))
def test_walk_raises_the_forward_error_of_a_non_finite_layer(data, kind, seed):
    nets, x, labels, taps = walk_case(data.draw, kind, seed)
    taps.add(data.draw(st.integers(1, len(nets[0].specs) - 1)))
    k = data.draw(st.integers(1, max(taps)))
    # an infinite last bias makes every row leave layer k non-finite
    param_views(nets[1])[k - 1][-1][...] = np.inf
    with pytest.raises(NumericError) as want:
        nets[1].forward(x[:256])
    with pytest.raises(NumericError) as got:
        list(walk_taps(nets, ("pre", "post"), x, labels, taps))
    assert str(got.value) == str(want.value) == f"non-finite activation leaving layer {k}"


def test_walk_rejects_a_batch_of_the_wrong_width():
    # the walk checks its batch as the network's own kernels do
    nets = [Network(mlp_specs(6, [5], 3)).init_random(seed=s) for s in (1, 2)]
    with pytest.raises(ShapeError, match=r"^batch must be \(n, 6\), got \(4, 5\)$"):
        list(walk_taps(nets, ("pre", "post"), np.ones((4, 5)), [0, 1, 2, 0]))


def test_one_eval_round_holds_about_one_tap_pair(tmp_path):
    # 2000 evaluation rows through four 64-wide hidden layers: the taps
    # dominate; the parameters take about 100 kB a model
    cfg = ExperimentConfig()
    d = cfg.data
    d.clients, d.classes, d.input_dim = 1, 2, 8
    d.train_per_client = d.test_per_client = 2000
    cfg.model.hidden = (64, 64, 64, 64)
    cfg.fed.rounds, cfg.fed.local_epochs, cfg.fed.eval_cadence = 1, 0, 1
    cfg.metrics.eval_per_class = 1000
    cfg.output.dir = str(tmp_path)
    validate_config(cfg)
    datasets = build_datasets(cfg)
    pair = 2 * 2000 * 64 * 8  # one pre and one post tap of the widest layer
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_federation(cfg, datasets)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the walk holds a layer's input and output pairs while it runs, and the
    # distances of a pair add two tap-sized scratch buffers: about 2.5 pairs
    # in all; holding every tap of both models, as whole-model captures do,
    # peaks above 6 pairs here
    assert peak < 2.75 * pair, peak / pair
