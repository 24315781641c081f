"""Every config that validation accepts runs or fails cleanly.

A `fedlens run` of an accepted config ends one of three ways: exit 0;
exit 2 with one `config error: <section.key>: ...` line and no output
directory; or exit 3 with one `NumericError` line. Any other exception,
or any extra stderr line, is a fault. After exit 0 with feature dumps,
`fedlens metrics` rebuilds each capture row of `metrics.csv` as the same
text. The inputs are tiny drawn configs, tiny IDX federations with
skewed, missing and out-of-range labels, and tiny federations with anchor
scales up to the float64 limit that `synthetic_reach` sets; an exit 3 of
those must name its round and leave no output directory.
"""

import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedlens.analysis import read_csv
from fedlens.config import ExperimentConfig, render_config, synthetic_reach
from fedlens.metrics import FEATURE_STATS
from test_config import valid_configs
from test_data import write_idx_pair
from test_dump_property import run_cli

CONFIG_ERROR = re.compile(r"config error: (scenario|[a-z]+\.[a-z_]+): ")
# a NumericError located in its round
NUMERIC_ROUND = re.compile(r"error: NumericError: round (\d+), ")


def capture_rows(path: Path, cfg: ExperimentConfig) -> set:
    """The lines of a metric CSV that `fedlens metrics` rebuilds from cfg's dumps:
    pre/post feature statistics, alignment when models are dumped too, and
    feature distances."""
    stats = set(FEATURE_STATS) | ({"alignment"} if cfg.output.dump_models else set())
    rows = set()
    for line in path.read_text().splitlines()[1:]:
        _, phase, _, _, metric, _ = line.split(",")
        if (phase in ("pre", "post") and metric in stats
                or phase == "delta" and metric.startswith("dist_")):
            rows.add(line)
    return rows


def run_cleanly(cfg: ExperimentConfig, work: Path):
    """Run cfg through the CLI in `work`, assert a clean ending; return the exit
    code and the stderr lines."""
    out_dir = work / "out"
    cfg.output.dir = str(out_dir)
    path = work / "run.cfg"
    path.write_text(render_config(cfg))
    # a warning would be a stderr line of its own; as an error it fails the check
    code, lines = run_cli(["run", str(path)])
    event(f"exit {code}")
    if code == 0:
        assert lines == []
        assert (out_dir / "metrics.csv").is_file()
        dumps = out_dir / "dumps"
        if cfg.output.dump_features and dumps.is_dir():
            event("dumps recomputed")
            offline = work / "offline.csv"
            assert run_cli(["metrics", str(dumps), "--out", str(offline)]) == (0, [])
            assert capture_rows(offline, cfg) == capture_rows(out_dir / "metrics.csv", cfg)
    elif code == 2:
        assert len(lines) == 1 and CONFIG_ERROR.match(lines[0]), lines
        assert not out_dir.exists()
    else:
        assert code == 3 and len(lines) == 1, (code, lines)
        assert lines[0].startswith("error: NumericError: "), lines
    return code, lines


@settings(max_examples=60, deadline=None)
@given(valid_configs(tiny=True))
def test_accepted_config_runs_or_fails_cleanly(cfg):
    with tempfile.TemporaryDirectory() as work:
        run_cleanly(cfg, Path(work))


@settings(max_examples=40, deadline=None)
@given(valid_configs(tiny=True))
def test_dumps_of_an_accepted_config_give_back_its_capture_rows(cfg):
    # a drawn config dumps and reaches an eval round too rarely to rely on above
    cfg.output.dump_features = True
    with tempfile.TemporaryDirectory() as work:
        run_cleanly(cfg, Path(work))


@st.composite
def idx_federations(draw):
    """(per-client train and test labels, classes, image rows and columns)."""
    classes = draw(st.integers(2, 3))
    # a label of `classes` or more is out of range
    label = st.integers(0, classes) if draw(st.booleans()) else st.integers(0, classes - 1)
    split = st.lists(label, min_size=1, max_size=10)
    clients = draw(st.lists(st.tuples(split, split), min_size=1, max_size=2))
    return clients, classes, draw(st.integers(1, 2)), draw(st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(fed=idx_federations(), eval_per_class=st.integers(1, 3), seed=st.integers(0, 9))
def test_idx_federation_runs_or_fails_cleanly(fed, eval_per_class, seed):
    clients, classes, rows, cols = fed
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig()
    d = cfg.data
    d.kind, d.clients, d.classes, d.input_dim = "idx", len(clients), classes, rows * cols
    cfg.model.hidden = (3, 3)
    cfg.fed.rounds, cfg.fed.local_epochs, cfg.fed.batch_size = 2, 1, 4
    cfg.fed.eval_cadence, cfg.fed.seed = 1, seed
    mt = cfg.metrics
    mt.eval_per_class, mt.probe_rounds, mt.probe_epochs = eval_per_class, (2,), 2
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        d.idx_dir = str(work)
        for m, pair in enumerate(clients):
            for split, labels in zip(("train", "test"), pair):
                pixels = rng.integers(0, 256, size=len(labels) * rows * cols).tolist()
                write_idx_pair(work, pixels, labels, rows, cols,
                               prefix=f"client{m}_{split}_")
        code, _ = run_cleanly(cfg, work)
    if max(max(labels) for pair in clients for labels in pair) >= classes:
        assert code == 2


def scale_config(anchor_scale, local_epochs, dump_features, dump_models):
    """A two-round, two-client federation of a 4-5-5-3 network, captured each round."""
    cfg = ExperimentConfig()
    d = cfg.data
    d.clients, d.classes, d.input_dim = 2, 3, 4
    d.train_per_client = d.test_per_client = 30
    d.anchor_scale = anchor_scale
    cfg.model.hidden = (5, 5)
    f = cfg.fed
    f.rounds, f.local_epochs, f.batch_size, f.eval_cadence = 2, local_epochs, 16, 1
    cfg.metrics.eval_per_class = 5
    cfg.output.dump_features, cfg.output.dump_models = dump_features, dump_models
    return cfg


def anchor_limit() -> float:
    """The largest anchor_scale whose draws `synthetic_reach` keeps in float range."""
    d = scale_config(0.0, 0, False, False).data
    reach = synthetic_reach(d)
    # reach is affine in |anchor_scale|: the reach at zero plus the slope times it
    d.anchor_scale = 1.0
    limit = (sys.float_info.max - reach) / (synthetic_reach(d) - reach)
    d.anchor_scale = limit
    while synthetic_reach(d) > sys.float_info.max:
        d.anchor_scale = math.nextafter(d.anchor_scale, 0.0)
    return d.anchor_scale


ANCHOR_LIMIT = anchor_limit()
# every decade up to the limit, and the limit itself
ANCHOR_SCALES = st.one_of(
    st.just(ANCHOR_LIMIT),
    st.floats(0.0, math.log10(ANCHOR_LIMIT)).map(lambda e: min(10.0 ** e, ANCHOR_LIMIT)))


@settings(max_examples=100, deadline=None)
@given(scale=ANCHOR_SCALES, sign=st.sampled_from((1.0, -1.0)), local_epochs=st.integers(0, 2),
       dump_features=st.booleans(), dump_models=st.booleans())
def test_data_scales_up_to_the_reach_limit_run_or_fail_in_their_round(
        scale, sign, local_epochs, dump_features, dump_models):
    cfg = scale_config(sign * scale, local_epochs, dump_features, dump_models)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        code, lines = run_cleanly(cfg, work)
        out_dir = work / "out"
        if code == 0:
            # read_csv refuses a non-finite value
            for name in ("metrics.csv", "accuracy.csv"):
                read_csv(out_dir / name)
        else:
            assert code == 3
            found = NUMERIC_ROUND.match(lines[0])
            assert found, lines
            assert 1 <= int(found[1]) <= cfg.fed.rounds, lines
            assert not out_dir.exists()
