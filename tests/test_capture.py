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
from conftest import frozen_forward, linear_hidden, param_views
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlens.analysis import read_csv
from fedlens.config import (PRESETS, ExperimentConfig, preset, render_config,
                            validate_config)
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
# every bit of the run's features, so they may move with the OpenBLAS kernel,
# and from the FPNV snapshots that store their layer specs (version 2); they
# were taken on GOLDEN_CORE. Any change to a captured byte, to the set of
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
        "dumps": (40, "9ee2c27f542f8c3fa3d803c3ca3c0c1916268f6f28296f8754a04c4868f4fd3a"),
    },
    "pretrained-successive": {
        "metrics.csv": "71f95827f2f5d8d94c0ebae385a8908bdd99241ffb3ce104e331ac5b3142c42a",
        "accuracy.csv": "2c444e47ba6698953aedeb16623e2785bee5f597862f4e50ebb7e37b34815002",
        "dumps": (32, "f5422dbfce153160280f9b048735a9c57037270d15e814d1b19e7cc3f39667af"),
    },
}


def test_capture_outputs_match_golden_hashes(tmp_path):
    for name, want in GOLDEN_RUNS.items():
        out_dir = tmp_path / name
        run_to_dir(tiny_config(out_dir, name))
        assert output_digests(out_dir) == want, (
            f"{name}: pinned on OpenBLAS core {GOLDEN_CORE}, "
            f"run on {blas_core() or 'an unknown core'}")


# config name -> sha256 of (accuracy.csv, metrics.csv) of every shipped preset
# at seed 1, cut to two eval rounds, taken on GOLDEN_CORE. The presets share
# one code path with the full-length runs, so any change to a byte of their
# outputs shows here within seconds.
GOLDEN_PRESET_RUNS = {
    "baseline": ("74e413f64035083896569fe78a019a045355f6af5fe7de19c4bd3ab4a995cfe7",
                 "f65e184605e5cfc2849b9ccb2b139deffb97fdda617e85620157ecf1b6dc90f4"),
    "iid-control": ("99d5c942a1a40488a36532a344c44ac3ccbf1b9870638f6c0a91a32b72bd7d19",
                    "b7a5a54713d66067d04492ce6560356e1804b0e922ba6d55dbb763f8c2dff831"),
    "personalization-classifier": (
        "4f4247b3a19d029de980a1b90f68cb1095b04ec3066b2baa730183a48061ddec",
        "07f19a26cbc19721bf01b16d7d11bb69dde89588d150032ce739340597a224f2"),
    "personalization-successive-k0": (
        "74e413f64035083896569fe78a019a045355f6af5fe7de19c4bd3ab4a995cfe7",
        "f65e184605e5cfc2849b9ccb2b139deffb97fdda617e85620157ecf1b6dc90f4"),
    "personalization-successive-k1": (
        "cb2b1b9029132db380e802bef7832e6803c8aa7470f61d83bf7683cb864056c5",
        "c763460c58fb40538742c914e5cc73ead6290209c55a04c5679eb773ad5d4418"),
    "personalization-successive-k2": (
        "4d03f8246a6538fa0b6736466c7b0d21be62f675d274bc9eac690ea3aceb9a69",
        "3e74d82dbb6981ad65ab70b12734d69310ef75967928c51cf63b84f148bc3ff5"),
    "personalization-successive-k3": (
        "ff2a0f66094cc6c2c986e7514cddba7134fe60e74678b76c5ad7ec6ee35e1c6a",
        "175120c46571c71794fc732eb13ec65d6eba35e73f07fc5e43ce70da8059999e"),
    "personalization-successive-k4": (
        "e1aa51c223b524038da0d9ebe17c4548d247b4cacfdfda2030019bbe84c61b61",
        "65dfefc1d7ed31ca9a3f24fabf548dca9dca53fa8fae39abb638bf147f4e0bf1"),
    "personalization-successive-k5": (
        "b2983ef6f7cdd1241b0f44ea3248e97f11c2ac52846b152b01aafe588e527aaf",
        "de10f556ffa34be62c7248a1b35353a239972e72efc314e38c8114a4301fb371"),
    "personalization-successive-k6": (
        "da7113996c0dd79380065ad5d00ebdd0e15d9f58ecb8e10171f08cfff666e67a",
        "9fce29a74905f58890baa5e516896c4d40ba1762d768cdf46ef535d116c1e1b5"),
    "personalization-skip-l1": (
        "cb2b1b9029132db380e802bef7832e6803c8aa7470f61d83bf7683cb864056c5",
        "c763460c58fb40538742c914e5cc73ead6290209c55a04c5679eb773ad5d4418"),
    "personalization-skip-l2": (
        "f7e96c7c2909e1d1b814915d38ac81da173496901cef7f7737e066a4a451ac16",
        "9bacf47f3a3e6ac73f468685755c4e28a617e2e70ba4029794f6cae2396b15ca"),
    "personalization-skip-l3": (
        "754ca1442bf3e55ae323beaf31322ad165d2f342c4ad17b29a1214819bac73e7",
        "69afb55609a198f81004a66cfe780aee4550882ec26610b2fc4589b035545863"),
    "personalization-skip-l4": (
        "33102135d6302b64cd3f357a516017a1ebee76a101d97d54e5306746d6ad4969",
        "7f4ec33dad904eeba666c3d901ef1cf56b84f28c409599e2cee25808c6623038"),
    "personalization-skip-l5": (
        "c4b5d90e0cd50bc60e2bd457e0429d9b4cce47e0491e06c8e1e57531a0dffabf",
        "4278f44913ee2fdaf7848f80a7fe3a53831f3d3f24644f899c534ad81a1a21fd"),
    "personalization-skip-l6": (
        "4f4247b3a19d029de980a1b90f68cb1095b04ec3066b2baa730183a48061ddec",
        "07f19a26cbc19721bf01b16d7d11bb69dde89588d150032ce739340597a224f2"),
    "pretrained": ("34a08715bc232db164a1b27a50c5b87cd0bdb3f2cc98613057694718e6def478",
                   "5c7099656d7998f2866fe84289c16eacda4b17a2b62c68bf95ab1fef446be8e2"),
    "pretrained-random-init": (
        "f9aa7be2921ed209d8e195e37f288d05b4d8a08b30af42190d548cb65d7c01fd",
        "44d573a917b8ffd9980dfbee3dd3ff8024b973ba70c861cc2a27ebea573827fd"),
    "finetune": ("7a47fa63dea5df5e76cf9e5be4b0e41b37f316cd0c9d8e9b25a60780e862b995",
                 "3f821851f427f7ddd82ea18ca2809a1bebfd96bb38a4b44c2e9e667209bfc788"),
    "local-epochs-e5-r20": ("1ab20355f4f9c875816450fc3053b29fa882449192e90fe866c92fddce7413ac",
                            "086b52da989bf8f49f125c5b64f611e1761a2a5a758793ac304d17cb7e0386d1"),
    "local-epochs-e10-r10": (
        "74e413f64035083896569fe78a019a045355f6af5fe7de19c4bd3ab4a995cfe7",
        "f65e184605e5cfc2849b9ccb2b139deffb97fdda617e85620157ecf1b6dc90f4"),
    "local-epochs-e20-r5": ("74d421aa45deac9a241cb999e7a11b0159e715fbfcbcc11b3f670db820ef81b2",
                            "f0d85566e138dd4c800c3936bd7cc7264c2f54cc916643a7978a1bc224dbc372"),
    "residual-off": ("74e413f64035083896569fe78a019a045355f6af5fe7de19c4bd3ab4a995cfe7",
                     "f65e184605e5cfc2849b9ccb2b139deffb97fdda617e85620157ecf1b6dc90f4"),
    "residual-on": ("547ce36fa913be2e4c39edf3a3fae1b01916b9b42c958557270343a42384ecb3",
                    "63483561ede7197ad0630e51dbb164114c8805cb828c1850bd94e9e3a248f399"),
}


def test_presets_cut_to_two_eval_rounds_match_golden_hashes(tmp_path):
    got = {}
    for name in PRESETS:
        for sub_name, cfg in preset(name):
            cfg.fed.rounds = 2 * cfg.fed.eval_cadence
            cfg.output.dir = str(tmp_path / sub_name)
            validate_config(cfg)
            out_dir = run_to_dir(cfg)
            got[sub_name] = (sha256(out_dir / "accuracy.csv"), sha256(out_dir / "metrics.csv"))
    assert got == GOLDEN_PRESET_RUNS, (f"pinned on OpenBLAS core {GOLDEN_CORE}, "
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


# a 4-5-5-5-3 network of each layer kind; the residual net's hidden layers 2
# and 3 are residual blocks of three maps
KINDS = {"linear": linear_hidden(mlp_specs(4, [5, 5, 5], 3)),
         "linear_relu": mlp_specs(4, [5, 5, 5], 3),
         "residual": mlp_specs(4, [5, 5, 5], 3, residual=True, residual_width=3,
                               residual_inner=3)}


def walk_case(draw, kind, seed):
    """Two networks of one drawn architecture, rows crossing 256-row batches, and taps."""
    specs = KINDS[kind]
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
        list(walk_taps(nets, ("pre", "post"), np.ones((4, 5)), [0, 1, 2, 0], range(2)))


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
