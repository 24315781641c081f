"""Tests of the benchmark itself: tracer, closed-form counts and output checks.

    python3 -m pytest -q perfbench

The traced runs use a tiny config, so the whole file takes about half a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, parse_config_text, set_keys  # noqa: E402

from fedlens.config import parse_config, preset, render_config  # noqa: E402

TINY = """\
scenario = finetune

[data]
clients = 2
classes = 3
input_dim = 6
train_per_client = 40
test_per_client = 30

[model]
hidden = 8,6

[fed]
rounds = 4
local_epochs = 2
batch_size = 16
eval_cadence = 2
seed = 5

[metrics]
eval_per_class = 5
probe_rounds = 3,4
probe_epochs = 3
finetune_epochs = 2
finetune_batch = 8

[output]
dir = {out}
dump_features = true
dump_models = true
"""


def preset_text(name, sub_name=None):
    return render_config(dict(preset(name))[sub_name or name])


def test_closed_form_counts_at_the_shipped_sizes():
    baseline = parse_config_text(preset_text("baseline"))
    counts = layers.expected_counts(baseline, offline=False)
    assert counts["linalg.svd_calls"] == 2160
    assert counts["metrics.alignment_calls"] == 720
    assert counts["nn.minibatches"] == 2400
    assert counts["dumps.files_written"] == 0

    dumped = parse_config_text(set_keys(preset_text("baseline"), {
        ("output", "dump_features"): "true", ("output", "dump_models"): "true"}))
    counts = layers.expected_counts(dumped, offline=True)
    assert counts["dumps.files_written"] == counts["dumps.files_read"] == 840
    assert counts["metrics.alignment_calls"] == 2 * 720

    probed = parse_config_text(set_keys(preset_text("finetune"), {
        ("metrics", "probe_rounds"): "22,24,26,28,30"}))
    counts = layers.expected_counts(probed, offline=False)
    # local 4*30*10*4 + fine-tune 15*4*10*63 + probes 5*4*4*100*8
    assert counts["nn.minibatches"] == 4800 + 37800 + 64000


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The tiny config's run, metrics and export, untraced and then traced."""
    work = tmp_path_factory.mktemp("tiny")
    text = render_config(parse_config(TINY.format(out=work / "out")))
    cfg_path = work / "tiny.cfg"
    cfg_path.write_text(text)
    env = run.Children(work, deadline=time.monotonic() + 600).env
    env["PYTHONPATH"] = str(ROOT / "src")
    commands = {"run": ["run", str(cfg_path)],
                "metrics": ["metrics", str(work / "out" / "dumps")],
                "export": ["export", str(work / "out"), "--long"]}
    outputs = {}
    docs = []
    for traced in (False, True):
        shutil.rmtree(work / "out", ignore_errors=True)
        for command, args in commands.items():
            if traced:
                spans = work / f"spans-{command}.json"
                argv = [sys.executable, str(run.TRACER), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "fedlens.cli", *args]
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
            if traced:
                docs.append(json.loads(spans.read_text()))
        outputs[traced] = {name: (work / "out" / name).read_bytes()
                           for names in run.OUTPUTS.values() for name in names}
    return parse_config_text(text), outputs, SpanTable(docs)


def test_tracing_does_not_change_outputs(tiny_runs):
    _, outputs, _ = tiny_runs
    assert outputs[True] == outputs[False]


def test_dump_parity_holds_on_the_tiny_run(tiny_runs):
    _, outputs, _ = tiny_runs
    offline = verify.parse_rows(outputs[False]["dumps/metrics_from_dumps.csv"].decode())
    online = verify.parse_rows(outputs[False]["metrics.csv"].decode())
    assert verify.dump_parity(offline, online) == []
    no_alignment = [row for row in offline if row[0][4] != "alignment" or row[0][2] != 1]
    assert verify.dump_parity(no_alignment, online)


def test_traced_counts_match_the_closed_form(tiny_runs):
    cfg, _, table = tiny_runs
    assert not table.absent
    assert table.hook_errors == 0
    expected = layers.expected_counts(cfg, offline=True)
    metrics = {name: value(table) for name, _, _, value in layers.PER_LAYER}
    for key, want in expected.items():
        assert metrics[key] == want, key
    # 2 clients x 4 rounds x 2 epochs x 3 batches, fine-tune 2 x 2 x 2 x 5,
    # probes at round 4 only: 2 datasets x 2 models x 3 epochs x 1 batch
    assert expected["nn.minibatches"] == 48 + 40 + 12
    assert metrics["linalg.svd_calls"] == 3 * metrics["metrics.alignment_calls"]
    assert metrics["dumps.bytes_written"] == metrics["dumps.bytes_read"] > 0
    assert metrics["metrics.probe_calls"] == 4
    assert metrics["fed.aggregate_calls"] == 4
    # Matmul flops: the network 6-8-6-3 has 114 multiply-adds per row, the
    # probe 6-3 has 18. A minibatch is three passes (forward, weight and
    # input gradients), a forward call one pass, each 2 flops per multiply-add.
    net, probe = 6 * 8 + 8 * 6 + 6 * 3, 6 * 3
    train_rows = 2 * 4 * 2 * 40 + 2 * 2 * 2 * 40      # local SGD, fine-tune
    probe_rows = 4 * 3 * 40                            # 4 probes x 3 epochs
    # per eval round and client: accuracy on 40 + 30 rows in three phases and
    # a 15-row capture in each; per probe: features of 40 + 30 rows
    forward_rows = 2 * 2 * 3 * (70 + 15) + 4 * 70
    probe_forward_rows = 4 * 3 * 30                    # test accuracy each epoch
    assert table.counter("nn.flop") == 2 * (3 * net * train_rows + 3 * probe * probe_rows
                                            + net * forward_rows + probe * probe_forward_rows)


def test_span_table_busy_self_and_parent_times():
    doc = {"names": ["outer", "inner", "leaf"],
           "spans": [[0, 0, 100, -1], [1, 10, 40, 0], [2, 15, 25, 1],
                     [1, 50, 90, 0], [0, 200, 210, -1], [2, 300, 305, -1]],
           "counters": {"c": 2}, "absent": ["x.y"], "hook_errors": 0, "import_s": 0.5}
    table = SpanTable([doc, doc])
    assert table.calls("inner") == 4
    assert table.busy_s("outer") == pytest.approx(2 * 110e-9)
    assert table.busy_s("outer", "inner") == pytest.approx(2 * 110e-9)
    assert table.self_s("outer") == pytest.approx(2 * (100 - 70 + 10) * 1e-9)
    assert table.self_s("inner") == pytest.approx(2 * (30 - 10 + 40) * 1e-9)
    assert table.under_s("leaf", "inner") == pytest.approx(2 * 10e-9)
    assert table.counter("c") == 4
    assert table.import_s == 1.0
    assert table.absent == {"x.y"}


def test_wrapping_covers_aliases_and_reports_absent_paths(tmp_path, monkeypatch):
    pkg = tmp_path / "tracedpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def f(x):\n    return x + 1\n\n"
        "class K:\n"
        "    def m(self):\n        return f(1)\n"
        "    @classmethod\n    def c(cls):\n        return cls.__name__\n"
        "    @staticmethod\n    def s():\n        return 7\n")
    (pkg / "b.py").write_text("from .a import f\n\ndef g():\n    return f(2)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import tracedpkg.b

    tracer = Tracer()
    for path in ("tracedpkg.a.f", "tracedpkg.a.K.m", "tracedpkg.a.K.c", "tracedpkg.a.K.s"):
        assert tracer.install(path)
    missing = ("tracedpkg.a.gone", "tracedpkg.nosuchmodule.f", "tracedpkg.a.K.gone",
               "tracedpkg.a.Missing.m")
    for path in missing:
        assert not tracer.install(path)
    assert tracer.absent == list(missing)

    from tracedpkg.a import K
    assert (tracedpkg.b.g(), K().m(), K.c(), K.s()) == (3, 2, "K", 7)
    table = SpanTable([tracer.to_json()])
    assert table.calls("tracedpkg.a.f") == 2          # through b's alias and K.m
    assert table.under_s("tracedpkg.a.f", "tracedpkg.a.K.m") > 0
    assert [table.calls(f"tracedpkg.a.K.{m}") for m in "mcs"] == [1, 1, 1]


def test_failed_commands_are_counted_and_do_not_stop_the_run(tmp_path, capsys):
    children = run.Children(tmp_path, deadline=time.monotonic() + 600)
    children.run("bad", [sys.executable, "-c", "raise SystemExit(3)"])
    good = children.run("good", [sys.executable, "-c", "print('ok')"])
    children.fail("good", "output check failed")
    children.fail("good", "a second problem with the same command")
    assert good.returncode == 0 and good.wall_s > 0
    assert (children.attempted, children.failed) == (2, 2)
    assert "FAIL bad: exit code 3" in capsys.readouterr().out


def test_output_checks():
    rows = [((2, "pre", 0, 1, "alignment"), 0.5), ((2, "post", 0, 1, "alignment"), 0.25)]
    assert verify.against_reference(rows, rows, 1e-9, "m") == []
    nudged = [(k, v * (1 + 1e-14)) for k, v in rows]
    assert verify.against_reference(nudged, rows, 1e-9, "m") == []
    moved = [(k, v * (1 + 1e-6)) for k, v in rows]
    assert verify.against_reference(moved, rows, 1e-9, "m")
    assert verify.against_reference(rows[:1], rows, 1e-9, "m")

    # offline rows beyond the capture metrics (rel_*) and online rows it
    # cannot recompute (accuracy, tuned, parameter distances) are not compared
    online = rows + [((2, "post", 0, -1, "train_acc"), 0.9),
                     ((2, "tuned", 0, 1, "alignment"), 0.7),
                     ((2, "delta", 0, 2, "param_dist_mse"), 0.1)]
    offline = nudged + [((2, "delta", 0, 1, "rel_alignment"), 33.3)]
    assert verify.dump_parity(offline, online) == []
    assert verify.dump_parity(moved, online) == []              # within 1e-6
    assert verify.dump_parity([(k, v * 1.001) for k, v in rows], online)
    assert verify.dump_parity(rows[:1], online)                 # post alignment missing
    assert verify.dump_parity(rows + [((2, "pre", 0, 1, "tr_w"), 3.0)], online)
    assert verify.dump_parity([], [])                           # nothing to compare

    rel = ((2, "delta", 0, 1, "rel_alignment"), abs(0.25 - 0.5) / 0.75 * 100)
    assert verify.long_export(rows + [rel], rows) == []
    assert verify.long_export(rows, rows)
    assert verify.long_export(rows + [(rel[0], 1.0)], rows)

    text = verify.HEADER + "\n2,pre,0,1,alignment,0.5\n"
    assert verify.parse_rows(text) == rows[:1]
    with pytest.raises(ValueError):
        verify.parse_rows("round,value\n")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    per_layer.append(("trace_overhead_frac", "frac", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "baseline",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
