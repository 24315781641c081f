"""End-to-end CLI tests: run outputs, determinism, presets, dump recomputation,
export, and exit codes."""

import errno
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import is_registered, value_map

import fedlens
from fedlens import fed as fed_module
from fedlens.analysis import CSV_HEADER, read_csv, relative_change
from fedlens import cli as cli_module
from fedlens.cli import main
from fedlens import config as config_module
from fedlens.config import RULES, Domain, load_config, parse_config
from fedlens import dumps as dumps_module
from fedlens.dumps import feature_filename, model_filename, read_features, write_features
from fedlens.errors import ConfigError, FormatError, NumericError
from fedlens.metrics import FeatureMatrix
from fedlens.nn import Network, load_params, mlp_specs, save_params
from fedlens.runner import execute
from test_data import write_idx_pair
from test_formats import fpnv_v1

CONFIG_TEMPLATE = """\
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
{output_extra}"""


# texts outside each kind of RULES domain, given the domain's arg
BAD_TEXTS = {
    "at_least": lambda least: [str(least - 1)],
    "finite": lambda _: ["nan", "inf", "-inf"],
    "positive": lambda _: ["0.0", "-1.0", "nan", "inf"],
    "unit": lambda _: ["-0.1", "1.0", "nan"],
    "one_of": lambda _: ["bogus"],
    "text": lambda _: ["", "out   # where results go"],
    "noteless": lambda _: ["data   # where the IDX files are"],
    "entries": lambda least: [f"{least},{least - 1}"],
    "widths": lambda least: ["", f"{least},{least - 1}"],
}

# keys gone from the config, with the domains their rules had: hidden layers
# are always ReLU and the probe and fine-tune rates are fixed
REMOVED_RULES = {"model.activation": Domain("one_of", ("relu", "linear")),
                 "metrics.probe_lr": Domain("positive"),
                 "metrics.finetune_lr": Domain("positive"),
                 "metrics.finetune_momentum": Domain("unit")}
# keys that the config no longer has: a config that sets one, at any value,
# is refused at its line as an unknown key
REMOVED_KEYS = ("data.label_noise", "data.balanced", "metrics.distances", *REMOVED_RULES)

# (field, bad value, other keys set with it): each is a config error that
# `fedlens run` reports before it trains or creates the output dir. The rows
# built from RULES break one field's domain, and those built from
# REMOVED_RULES set a removed key to a value its rule refused; the written
# ones break a rule that reads several fields, or a domain in another context.
BAD_VALUES = [(key, text, {}) for key, domain in {**RULES, **REMOVED_RULES}.items()
              for text in BAD_TEXTS[domain.kind](domain.arg)] + [
    ("fed.batch_size", "0", {"fed.pretrain_epochs": "1"}),
    ("fed.personalization", "skip:", {}),
    ("data.train_per_client", "0", {}),
    ("data.test_per_client", "2", {}),
    # scales whose draws overflow float64, found from the generator's bound
    ("data.within_class_scale", "8.07e307", {"data.anchor_scale": "0"}),
    ("data.offset_scale", "1e308", {}),
    ("data.anchor_scale", "1e308", {}),
    # draws far inside float64 from a scale range whose width is past it
    ("data.scale_max", "1e308", {"data.scale_min": "-1e308", "data.anchor_scale": "0",
                                 "data.within_class_scale": "1e-300"}),
    # 30 train rows of 3 balanced classes give 10 per class
    ("metrics.eval_per_class", "11", {}),
    # 4 rounds at a cadence of 5 would evaluate no round and record nothing
    ("fed.eval_cadence", "5", {}),
    # a note is checked before the IDX files are looked for
    ("data.idx_dir", "data   # where the IDX files are", {"data.kind": "idx"}),
    # relabeled or unbalanced, 15 and 12 train rows of 3 classes once left
    # some class under 6 and 5; both keys are gone, and parsing refuses them
    # as unknown before the eval-row rule is judged
    ("metrics.eval_per_class", "6", {"data.label_noise": "0.1", "data.train_per_client": "15"}),
    ("metrics.eval_per_class", "5", {"data.balanced": "false", "data.train_per_client": "12"}),
]


def write_config(path, out_dir, output_extra=""):
    path.write_text(CONFIG_TEMPLATE.format(out_dir=out_dir,
                                           output_extra=output_extra))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def baseline_run(workspace):
    out_dir = workspace / "base_out"
    cfg_path = write_config(workspace / "base.cfg", out_dir)
    assert main(["run", str(cfg_path)]) == 0
    return {"cfg": cfg_path, "out": out_dir}


@pytest.fixture(scope="module")
def dump_run(workspace):
    out_dir = workspace / "dump_out"
    cfg_path = write_config(workspace / "dump.cfg", out_dir,
                            "dump_features = true\ndump_models = true\n")
    assert main(["run", str(cfg_path)]) == 0
    return {"cfg": cfg_path, "out": out_dir, "dumps": out_dir / "dumps"}


class TestRun:
    def test_row_counts(self, baseline_run):
        records = read_csv(baseline_run["out"] / "metrics.csv")
        # 2 eval rounds x 2 phases x 4 clients per metric per tap
        for tap in range(3):
            rows = [r for r in records
                    if r.metric == "sigma_w" and r.layer == tap]
            assert len(rows) == 2 * 2 * 4
            assert {r.round for r in rows} == {2, 4}
        acc = read_csv(baseline_run["out"] / "accuracy.csv")
        for name in ("train_acc", "test_acc"):
            rows = [r for r in acc if r.metric == name]
            assert len(rows) == 2 * 2 * 4
            assert all(r.layer == -1 for r in rows)

    def test_metrics_csv_excludes_accuracy(self, baseline_run):
        records = read_csv(baseline_run["out"] / "metrics.csv")
        names = {r.metric for r in records}
        assert not names & {"train_acc", "test_acc"}
        assert all(is_registered(n) for n in names)

    def test_rerun_byte_identical(self, baseline_run):
        out = baseline_run["out"]
        first = {name: (out / name).read_bytes()
                 for name in ("metrics.csv", "accuracy.csv", "manifest.txt")}
        assert main(["run", str(baseline_run["cfg"])]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_manifest_parses_back_to_the_same_config(self, baseline_run):
        manifest = (baseline_run["out"] / "manifest.txt").read_text()
        assert parse_config(manifest) == load_config(baseline_run["cfg"])

    def test_manifest_records_derived_seeds(self, baseline_run):
        lines = (baseline_run["out"] / "manifest.txt").read_text().splitlines()
        assert any(l.startswith("# eval rounds = 2,4") for l in lines)
        assert any(l.startswith("# init seed = ") for l in lines)
        train_seeds = [l for l in lines if l.startswith("# train seed client ")]
        assert len(train_seeds) == 4 * 4  # every (client, round) pair

    def test_missing_config_exits_2(self, workspace, capsys):
        assert main(["run", str(workspace / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_the_offset(self, workspace, capsys):
        cfg = workspace / "latin1.cfg"
        cfg.write_bytes(b"scenario = baseline\n\n[fed]\n# caf\xe9\nseed = 1\n")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == ("config error: config file is not UTF-8 "
                                           "text at offset 32\n")

    def test_invalid_tap_exits_2_naming_field(self, workspace, capsys):
        cfg = write_config(workspace / "badtap.cfg", workspace / "badtap_out")
        cfg.write_text(cfg.read_text().replace(
            "eval_per_class = 5", "eval_per_class = 5\ntaps = 0,9"))
        assert main(["run", str(cfg)]) == 2
        assert "metrics.taps" in capsys.readouterr().err

    def test_dumping_more_rounds_than_u16_is_rejected_up_front(self, workspace):
        text = write_config(workspace / "longdump.cfg", workspace / "longdump_out",
                            "dump_features = true\n").read_text()
        text = text.replace("rounds = 4", "rounds = 65536")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.field == "fed.rounds"
        # without dumps the same length is valid
        assert parse_config(text.replace("dump_features = true",
                                         "dump_features = false")).fed.rounds == 65536

    @pytest.mark.parametrize("field, value, also", BAD_VALUES,
                             ids=[f"{f}={v}" + "".join(f"+{k}={t}" for k, t in a.items())
                                  for f, v, a in BAD_VALUES])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, field, value, also):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "bad.cfg", out_dir)
        # a repeated section header reopens the section; the last value wins
        for key, text in {**also, field: value}.items():
            section, _, name = key.rpartition(".")
            if section:
                cfg.write_text(cfg.read_text() + f"\n[{section}]\n{name} = {text}\n")
            else:
                cfg.write_text(cfg.read_text().replace("scenario = baseline",
                                                       f"{name} = {text}"))
        assert main(["run", str(cfg)]) == 2
        removed = [key for key in (*also, field) if key in REMOVED_KEYS]
        named = (rf"line \d+: {re.escape(removed[0])}: unknown key " if removed
                 else f"{re.escape(field)}: ")
        assert re.match("config error: " + named, capsys.readouterr().err)
        assert not out_dir.exists()

    def test_unknown_key_reports_line_number(self, workspace, capsys):
        cfg = workspace / "badkey.cfg"
        # a removed key is unknown, even at what was its only value in any
        # experiment
        for section, key, text in (("fed", "warp_speed", "9"), ("data", "label_noise", "0.0"),
                                   ("data", "balanced", "true"), ("model", "activation", "relu"),
                                   ("metrics", "distances", "true"),
                                   ("metrics", "probe_lr", "0.01"),
                                   ("metrics", "finetune_lr", "0.01"),
                                   ("metrics", "finetune_momentum", "0.1")):
            cfg.write_text(f"scenario = baseline\n\n[{section}]\n{key} = {text}\n")
            assert main(["run", str(cfg)]) == 2
            assert capsys.readouterr().err == (f"config error: line 4: {section}.{key}: "
                                               f"unknown key {key!r}\n")


IDX_CONFIG = """\
scenario = baseline

[data]
kind = idx
idx_dir = {idx_dir}
clients = 2
classes = 3
input_dim = 6

[model]
hidden = 8,8

[fed]
rounds = 2
local_epochs = 2
batch_size = 8
eval_cadence = 1
seed = 3

[metrics]
eval_per_class = 4
probe_rounds = 2
probe_epochs = 3

[output]
dir = {out_dir}
"""


class TestIdxRun:
    """A 2-client IDX federation whose client 0 holds classes 0 and 1 only."""

    @pytest.fixture
    def idx_cfg(self, tmp_path):
        rng = np.random.default_rng(11)
        labels = {0: [0, 1] * 8, 1: [0, 1, 2] * 6}
        for m, split in ((m, split) for m in labels for split in ("train", "test")):
            pixels = rng.integers(0, 256, size=len(labels[m]) * 6).tolist()
            write_idx_pair(tmp_path, pixels, labels[m], rows=2, cols=3,
                           prefix=f"client{m}_{split}_")
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(IDX_CONFIG.format(idx_dir=tmp_path, out_dir=tmp_path / "out"))
        return cfg

    def test_client_lacking_a_class_runs_byte_identically(self, idx_cfg):
        out = idx_cfg.parent / "out"
        names = ("metrics.csv", "accuracy.csv", "manifest.txt")
        assert main(["run", str(idx_cfg)]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        records = read_csv(out / "metrics.csv")
        assert {r.client for r in records if r.metric == "probe_acc"} == {0, 1}
        assert main(["run", str(idx_cfg)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == first

    def test_label_at_or_above_classes_exits_2(self, idx_cfg, capsys):
        path = idx_cfg.parent / "client1_test_labels.idx"
        blob = bytearray(path.read_bytes())
        blob[-1] = 5
        path.write_bytes(bytes(blob))
        assert main(["run", str(idx_cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: data.classes: ")

    def test_class_with_too_few_rows_exits_2(self, idx_cfg, capsys):
        idx_cfg.write_text(idx_cfg.read_text().replace("eval_per_class = 4",
                                                       "eval_per_class = 7"))
        assert main(["run", str(idx_cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: metrics.eval_per_class: client 1 has 6 train rows of class 0, "
            "fewer than 7\n")
        assert not (idx_cfg.parent / "out").exists()

    def test_class_with_too_few_rows_exits_2_before_pretraining(self, idx_cfg, capsys,
                                                                monkeypatch):
        text = idx_cfg.read_text().replace("eval_per_class = 4", "eval_per_class = 7")
        idx_cfg.write_text(text.replace("[fed]", "[fed]\npretrain_epochs = 1"))

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the eval rows were drawn")

        monkeypatch.setattr(fed_module, "sgd_epochs", no_training)
        assert main(["run", str(idx_cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: metrics.eval_per_class: client 1 has 6 train rows of class 0, "
            "fewer than 7\n")
        assert not (idx_cfg.parent / "out").exists()

    def test_missing_idx_file_exits_2(self, idx_cfg, capsys):
        (idx_cfg.parent / "client1_train_images.idx").unlink()
        assert main(["run", str(idx_cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: data.idx_dir: ")
        assert not (idx_cfg.parent / "out").exists()


def huge_anchor_config(path, out_dir, anchor_scale, output_extra=""):
    """The test config with untrained clients on data of the given anchor scale."""
    cfg = write_config(path, out_dir, output_extra)
    text = cfg.read_text().replace("local_epochs = 2", "local_epochs = 0")
    cfg.write_text(text.replace("anchor_scale = 2.0", f"anchor_scale = {anchor_scale}"))
    return cfg


def test_non_finite_record_exits_3_and_leaves_no_output_dir(tmp_path, capsys, monkeypatch):
    # tap 0's traces overflow at the first capture, in round 2 of 4
    out_dir = tmp_path / "out"
    cfg = huge_anchor_config(tmp_path / "inf.cfg", out_dir, "1e160")
    rounds = []
    real = fed_module.client_round_seed
    monkeypatch.setattr(fed_module, "client_round_seed",
                        lambda seed, m, r: rounds.append(r) or real(seed, m, r))
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == ("error: NumericError: round 2, client 0, capture: "
                                       "record (2, 'pre', 0, 0, 'sigma_b') "
                                       "has non-finite value nan\n")
    assert max(rounds) == 2
    assert not out_dir.exists()


def test_a_failed_run_removes_the_dumps_it_wrote_and_only_them(tmp_path, capsys):
    # the first capture dumps both models before its walk overflows
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n")
    cfg = huge_anchor_config(tmp_path / "inf.cfg", out_dir, "1e160",
                             "dump_features = true\ndump_models = true\n")
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("error: NumericError: round 2, client 0, capture: ")
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt"]


# a dump run writes under <output.dir>/dumps, so a file there is refused too
@pytest.mark.parametrize("out, extra", [("dumps", ""), ("dumps/sub", ""),
                                        (".", "dump_features = true\n")],
                         ids=["file", "under_file", "dumps_file"])
def test_an_output_dir_at_or_under_a_file_exits_2_before_any_work(tmp_path, capsys,
                                                                  monkeypatch, out, extra):
    afile = tmp_path / "dumps"
    afile.write_text("kept\n")
    cfg = write_config(tmp_path / "file.cfg", tmp_path / out, extra)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    rounds = []
    monkeypatch.setattr(fed_module, "client_round_seed", lambda *args: rounds.append(args))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"config error: output.dir: {afile} exists "
                                       "and is not a directory\n")
    assert rounds == []
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_run_without_dumps_leaves_a_file_named_dumps_alone(tmp_path, capsys):
    (tmp_path / "dumps").write_text("kept\n")
    assert main(["run", str(write_config(tmp_path / "plain.cfg", tmp_path))]) == 0
    assert (tmp_path / "dumps").read_text() == "kept\n"


def tree(root):
    """Each path under root -> a link's target, a file's bytes, or None for a
    directory; links are not followed."""
    found = {}
    for parent, dirs, files in os.walk(root):
        for path in (Path(parent, name) for name in dirs + files):
            found[path] = (os.readlink(path) if path.is_symlink()
                           else path.read_bytes() if path.is_file() else None)
    return found


# a link counts as existing even when dangling, and a dump run neither writes
# through a link at <output.dir>/dumps nor removes one
@pytest.mark.parametrize("link, target, extra, message", [
    ("out", "gone", "", "exists and is not a directory"),
    ("out/dumps", "gone", "dump_features = true\n", "is a link, not a directory"),
    ("out/dumps", "kept", "dump_models = true\n", "is a link, not a directory"),
], ids=["dangling_output_dir", "dangling_dumps", "dumps_to_a_directory"])
def test_a_link_at_an_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                         link, target, extra, message):
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "notes.txt").write_text("kept\n")
    link = tmp_path / link
    link.parent.mkdir(exist_ok=True)
    link.symlink_to(tmp_path / target)
    cfg = write_config(tmp_path / "link.cfg", tmp_path / "out", extra)
    before = tree(tmp_path)
    rounds = []
    monkeypatch.setattr(fed_module, "client_round_seed", lambda *args: rounds.append(args))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"config error: output.dir: {link} {message}\n")
    assert rounds == []
    assert tree(tmp_path) == before


def test_a_run_without_dumps_leaves_a_link_named_dumps_alone(tmp_path, capsys):
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "notes.txt").write_text("kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "dumps").symlink_to(tmp_path / "kept")
    before = tree(tmp_path)
    assert main(["run", str(write_config(tmp_path / "plain.cfg", tmp_path / "out"))]) == 0
    assert capsys.readouterr().err == ""
    after = tree(tmp_path)
    assert {p: after[p] for p in before} == before
    assert sorted(p.name for p in set(after) - set(before)) == [
        "accuracy.csv", "manifest.txt", "metrics.csv", "plain.cfg"]


def test_an_output_dir_linked_to_a_directory_runs_into_it(tmp_path, capsys):
    (tmp_path / "real").mkdir()
    (tmp_path / "out").symlink_to(tmp_path / "real")
    assert main(["run", str(write_config(tmp_path / "plain.cfg", tmp_path / "out"))]) == 0
    assert sorted(p.name for p in (tmp_path / "real").iterdir()) == [
        "accuracy.csv", "manifest.txt", "metrics.csv"]
    assert os.readlink(tmp_path / "out") == str(tmp_path / "real")


# every command that writes checks its --out as `run` checks output.dir:
# before any work, and an error when a file stands at or above it
OUT_COMMANDS = {"preset": (["preset", "baseline"], "", config_module, "preset"),
                "metrics": (["metrics", "{dumps}"], "/m.csv", dumps_module,
                            "metrics_from_dumps"),
                "export": (["export", "{run}", "--long"], "/long.csv", cli_module, "read_csv")}


def out_argv(command, out, baseline_run, dump_run):
    argv, file, _, _ = OUT_COMMANDS[command]
    argv = [a.format(dumps=dump_run["dumps"], run=baseline_run["out"]) for a in argv]
    return argv + ["--out", f"{out}{file}"]


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("under", ["afile", "afile/sub"])
def test_an_out_path_at_or_under_a_file_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, baseline_run, dump_run, command, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    *_, module, work = OUT_COMMANDS[command]
    monkeypatch.setattr(module, work, lambda *args: pytest.fail(f"{work} ran"))
    argv = out_argv(command, tmp_path / under, baseline_run, dump_run)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: --out: {afile} exists "
                                       "and is not a directory\n")
    assert tree(tmp_path) == {afile: b"kept\n"}


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_an_out_path_in_missing_directories_makes_them(tmp_path, capsys, baseline_run,
                                                       dump_run, command):
    argv = out_argv(command, tmp_path / "new" / "sub", baseline_run, dump_run)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'new' / 'sub'}/")


def test_a_manifest_write_that_fails_midway_keeps_the_earlier_manifest(tmp_path, capsys,
                                                                       monkeypatch):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "m.cfg", out_dir)
    assert main(["run", str(cfg)]) == 0
    manifest = out_dir / "manifest.txt"
    before = manifest.read_bytes()
    cfg.write_text(cfg.read_text().replace("\nseed = 7\n", "\nseed = 8\n"))
    real = Path.write_text

    def half_then_full_disk(self, text, **kwargs):
        if self.name != "manifest.txt.tmp":
            return real(self, text, **kwargs)
        real(self, text[:len(text) // 2], **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full_disk)
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: OSError: [Errno 28] No space left on device\n")
    assert manifest.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == ["accuracy.csv", "manifest.txt",
                                                         "metrics.csv"]


def test_a_rerun_replaces_the_dumps_of_the_earlier_run(tmp_path, capsys):
    # a 4-round run, then a 2-round one into the same directory: the dumps
    # and their offline records are those of the 2-round run alone
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "long.cfg", out_dir,
                       "dump_features = true\ndump_models = true\n")
    short = tmp_path / "short.cfg"
    short.write_text(cfg.read_text().replace("\nrounds = 4\n", "\nrounds = 2\n"))
    fresh = tmp_path / "fresh.cfg"
    fresh.write_text(short.read_text().replace(f"dir = {out_dir}", f"dir = {tmp_path / 'fresh'}"))
    for path in (cfg, short, fresh):
        assert main(["run", str(path)]) == 0
    assert (sorted(p.name for p in (out_dir / "dumps").iterdir())
            == sorted(p.name for p in (tmp_path / "fresh" / "dumps").iterdir()))
    assert main(["metrics", str(out_dir / "dumps")]) == 0
    assert capsys.readouterr().err == ""
    offline = read_csv(out_dir / "dumps" / "metrics_from_dumps.csv")
    assert {r.round for r in offline} == {r.round for r in read_csv(out_dir / "metrics.csv")} == {2}
    # a run without dumps leaves none behind either
    short.write_text(short.read_text().replace("dump_features = true\ndump_models = true",
                                               "dump_features = false\ndump_models = false"))
    assert main(["run", str(short)]) == 0
    assert not (out_dir / "dumps").exists()


def test_a_models_only_run_writes_the_model_snapshots(tmp_path, dump_run, capsys):
    # dump_models works without dump_features: the pre and post snapshot of
    # each client and eval round, the same bytes a run dumping both writes
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "models.cfg", out_dir, "dump_models = true\n")
    assert main(["run", str(cfg)]) == 0
    dumps = out_dir / "dumps"
    names = sorted(p.name for p in dumps.iterdir())
    assert names == sorted(model_filename(r, m, phase) for r in (2, 4) for m in range(4)
                           for phase in ("pre", "post"))
    for name in names:
        assert (dumps / name).read_bytes() == (dump_run["dumps"] / name).read_bytes()
    capsys.readouterr()
    assert main(["metrics", str(dumps)]) == 0
    assert capsys.readouterr().err == ""
    assert read_csv(dumps / "metrics_from_dumps.csv") == []


def test_manifest_seeds_are_the_seeds_the_run_derives(tmp_path, monkeypatch):
    # the manifest derives its seeds from its own copies of fed's seed labels;
    # it must list exactly the init, pretrain, eval-subset and train seeds
    # that run_federation derives
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "pre.cfg", out_dir)
    cfg.write_text(cfg.read_text().replace("\nseed = 7\n", "\nseed = 7\npretrain_epochs = 1\n"))
    assert main(["run", str(cfg)]) == 0
    derived = {}
    real = fed_module.derive_seed

    def recording(*parts):
        derived[parts] = real(*parts)
        return derived[parts]

    monkeypatch.setattr(fed_module, "derive_seed", recording)
    execute(load_config(cfg))
    labels = {"init": "init seed", "pretrain": "pretrain seed",
              "evalsubset": "eval subset seed client {}",
              "train": "train seed client {} round {}"}
    want = {f"# {labels[parts[1]].format(*parts[2:])} = {seed}"
            for parts, seed in derived.items() if parts[1] in labels}
    assert len(want) == 1 + 1 + 4 + 4 * 4  # init, pretrain, 4 clients, 4 x 4 rounds
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    assert {line for line in lines if line.startswith("# ") and " seed " in line} == want


def test_overflowing_data_past_validation_is_a_numeric_error(tmp_path):
    # validate_config rejects such scales; the data check stays as a backstop
    cfg = load_config(write_config(tmp_path / "huge.cfg", tmp_path / "out"))
    cfg.data.anchor_scale = 1e308
    with pytest.raises(NumericError, match="^client 0 has non-finite data: "
                                          "the data scales overflow float64$"):
        execute(cfg)


class TestPreset:
    def test_baseline_config_loads_back(self, workspace, capsys):
        out = workspace / "presets"
        assert main(["preset", "baseline", "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = load_config(out / "baseline.cfg")
        assert cfg.scenario == "baseline"
        assert cfg.data.clients == 4 and cfg.data.classes == 5
        assert len(cfg.model.hidden) == 5

    def test_successive_family_has_every_depth(self, workspace, capsys):
        out = workspace / "presets_succ"
        assert main(["preset", "personalization-successive", "--out", str(out)]) == 0
        capsys.readouterr()
        files = sorted(out.glob("*.cfg"))
        assert len(files) == 7
        for k, path in enumerate(files):
            cfg = load_config(path)
            assert cfg.fed.personalization == f"successive:{k}"

    def test_local_epochs_family_keeps_budget(self, workspace, capsys):
        out = workspace / "presets_epochs"
        assert main(["preset", "local-epochs-ablation", "--out", str(out)]) == 0
        capsys.readouterr()
        files = sorted(out.glob("*.cfg"))
        assert len(files) == 3
        for path in files:
            cfg = load_config(path)
            assert cfg.fed.local_epochs * cfg.fed.rounds == 100

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["preset", "does-not-exist"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestMetricsCommand:
    def test_recomputed_metrics_match_run_outputs(self, dump_run, capsys):
        assert main(["metrics", str(dump_run["dumps"])]) == 0
        capsys.readouterr()
        recomputed = value_map(read_csv(dump_run["dumps"] / "metrics_from_dumps.csv"))
        original = value_map(read_csv(dump_run["out"] / "metrics.csv"))

        def capture_keys(values):
            return {key for key in values
                    if key[4].startswith(("sigma_", "tr_", "alignment", "dist_"))}

        shared = capture_keys(recomputed)
        assert shared == capture_keys(original)
        metrics_seen = {key[4] for key in shared}
        assert {"sigma_w", "sigma_b", "tr_w", "tr_b", "tr_t", "alignment",
                "dist_l1_norm", "dist_mse", "dist_l1", "dist_cos"} <= metrics_seen
        assert ({key: repr(recomputed[key]) for key in shared}
                == {key: repr(original[key]) for key in shared})

    def test_features_past_float32_range_are_recomputed_exactly(self, tmp_path, capsys):
        # tap 0 holds data of scale 1e40, which a float32 payload stored as inf
        out_dir = tmp_path / "out"
        cfg = huge_anchor_config(tmp_path / "big.cfg", out_dir, "1e40",
                                 "dump_features = true\ndump_models = true\n")
        assert main(["run", str(cfg)]) == 0
        assert main(["metrics", str(out_dir / "dumps")]) == 0
        assert capsys.readouterr().err == ""
        recomputed = value_map(read_csv(out_dir / "dumps" / "metrics_from_dumps.csv"))
        original = value_map(read_csv(out_dir / "metrics.csv"))
        assert max(original[key] for key in original if key[4] == "tr_t") > 1e80
        shared = [key for key in recomputed if not key[4].startswith("rel_")]
        assert shared
        assert ({key: repr(recomputed[key]) for key in shared}
                == {key: repr(original[key]) for key in shared})

    def test_overflowing_feature_value_exits_3_naming_its_file(self, dump_run, tmp_path,
                                                               capsys):
        # finite, so the file reads, but the traces of a run's taps cannot overflow
        dumps = tmp_path / "dumps"
        shutil.copytree(dump_run["dumps"], dumps)
        path = dumps / feature_filename(2, 1, 1, "post")
        fm = read_features(path)
        values = fm.values.copy()
        values[0, 0] = 1e300
        write_features(path, FeatureMatrix(values, fm.labels, layer=1, phase="post", round=2))
        assert main(["metrics", str(dumps)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FormatError: "), err
        assert str(path) in err[0] and "non-finite value" in err[0], err

    def test_every_snapshot_is_read_once(self, dump_run, tmp_path, monkeypatch):
        dumps = tmp_path / "dumps"
        shutil.copytree(dump_run["dumps"], dumps)
        # a snapshot without feature dumps is read and checked too
        shutil.copy(dumps / model_filename(2, 0, "pre"), dumps / model_filename(9, 0, "pre"))
        read = []
        real = dumps_module.load_params
        monkeypatch.setattr(dumps_module, "load_params",
                            lambda path: read.append(path.name) or real(path))
        dumps_module.metrics_from_dumps(dumps)
        assert sorted(read) == sorted(p.name for p in dumps.glob("*.fpnv"))

    def test_damaged_layer_field_exits_3_naming_the_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "dump.cfg", out_dir,
                           "dump_features = true\ndump_models = true\n")
        cfg.write_text(cfg.read_text() + "\n[fed]\nrounds = 2\n")
        assert main(["run", str(cfg)]) == 0
        snapshot = out_dir / "dumps" / model_filename(2, 0, "pre")
        blob = bytearray(snapshot.read_bytes())
        blob[10:14] = bytes([7] * 4)        # the first layer's kind code and in_dim
        snapshot.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["metrics", str(out_dir / "dumps")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: FormatError: {snapshot}: "), err

    def test_version_1_snapshot_exits_3_naming_it(self, dump_run, tmp_path, capsys):
        # only version 2 snapshots, which store their layer specs, are read
        dumps = tmp_path / "dumps"
        shutil.copytree(dump_run["dumps"], dumps)
        path = dumps / model_filename(2, 1, "post")
        path.write_bytes(fpnv_v1(load_params(path)))
        assert main(["metrics", str(dumps)]) == 3
        assert capsys.readouterr().err == (
            f"error: FormatError: {path}: unsupported version 1 at offset 4\n")

    # the run's network is 6 -> 8 -> 8 -> 3
    @pytest.mark.parametrize("phases, input_dim, hidden, problem", [
        (("post",), 6, (8,), "layer specs differ"),
        (("pre", "post"), 5, (8, 8), "taking the 6 features"),
    ], ids=["pair_layouts_differ", "interface_width"])
    def test_snapshot_unlike_the_run_exits_3_naming_it(self, dump_run, tmp_path, capsys,
                                                        phases, input_dim, hidden, problem):
        dumps = tmp_path / "dumps"
        shutil.copytree(dump_run["dumps"], dumps)
        net = Network(mlp_specs(input_dim, hidden, 3)).init_random(seed=0)
        for phase in phases:
            save_params(net, dumps / model_filename(2, 1, phase))
        assert main(["metrics", str(dumps)]) == 3
        err = capsys.readouterr().err
        path = dumps / model_filename(2, 1, phases[0])
        assert err.startswith(f"error: FormatError: {path}: ") and problem in err, err

    def test_missing_post_dump_warns_and_skips(self, tmp_path, capsys):
        rng = np.random.default_rng(71)

        def fm(layer, phase):
            return FeatureMatrix(rng.normal(size=(9, 4)), [0, 1, 2] * 3,
                                 layer=layer, phase=phase, round=2, client=0)

        for layer, phase in ((0, "pre"), (1, "pre"), (1, "post")):
            write_features(tmp_path / feature_filename(2, 0, layer, phase),
                           fm(layer, phase))
        assert main(["metrics", str(tmp_path)]) == 0
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 1
        assert "missing post dump, skipped" in err_lines[0]
        records = read_csv(tmp_path / "metrics_from_dumps.csv")
        assert records and all(r.layer == 1 for r in records)

    def test_identical_pre_post_dumps(self, tmp_path, capsys):
        rng = np.random.default_rng(73)
        values = rng.normal(size=(9, 4))
        for phase in ("pre", "post"):
            write_features(tmp_path / feature_filename(3, 1, 0, phase),
                           FeatureMatrix(values, [0, 1, 2] * 3, layer=0,
                                         phase=phase, round=3, client=1))
        assert main(["metrics", str(tmp_path)]) == 0
        capsys.readouterr()
        vm = value_map(read_csv(tmp_path / "metrics_from_dumps.csv"))
        for name in ("rel_sigma_w", "rel_sigma_b", "rel_tr_t",
                     "dist_l1", "dist_mse", "dist_l1_norm"):
            assert vm[(3, "delta", 1, 0, name)] == 0.0
        assert vm[(3, "delta", 1, 0, "dist_cos")] == pytest.approx(1.0, abs=1e-12)

    def test_corrupt_magic_exits_3(self, tmp_path, capsys):
        bad = tmp_path / feature_filename(1, 0, 0, "pre")
        bad.write_bytes(b"XXXX" + bytes(40))
        assert main(["metrics", str(tmp_path)]) == 3
        assert bad.name in capsys.readouterr().err

    def test_header_disagreeing_with_file_name_exits_3(self, tmp_path, capsys):
        fm = FeatureMatrix(np.ones((3, 2)), [0, 1, 2], layer=1, phase="pre", round=1)
        path = tmp_path / feature_filename(1, 0, 0, "pre")
        write_features(path, fm)
        assert main(["metrics", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: FormatError: {path}: header disagrees with file name\n")

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "ghost")]) == 2
        assert "config error" in capsys.readouterr().err


class TestDumpHeader:
    def fm(self, **context):
        return FeatureMatrix(np.ones((3, 2)), [0, 1, 2], phase="pre", **context)

    def test_the_header_u16_limit_is_the_rounds_rule_limit(self):
        # dumps keeps its own copy, so `fedlens metrics` need not load config
        assert dumps_module.U16_MAX == config_module.U16_MAX == 0xFFFF

    def test_largest_u16_round_and_layer_round_trip(self, tmp_path):
        path = tmp_path / "edge.fplf"
        write_features(path, self.fm(layer=65535, round=65535))
        back = read_features(path)
        assert (back.layer, back.round) == (65535, 65535)

    @pytest.mark.parametrize("field, context", [
        ("round", {"layer": 0, "round": 65536}),
        ("layer", {"layer": 65536, "round": 1}),
        ("layer", {"layer": -1, "round": 1}),
    ])
    def test_out_of_range_field_is_a_format_error(self, tmp_path, field, context):
        path = tmp_path / "bad.fplf"
        with pytest.raises(FormatError, match=field):
            write_features(path, self.fm(**context))
        assert not path.exists()


def package_env(**extra):
    """Environment for a child interpreter that imports this checkout's fedlens."""
    src = str(Path(fedlens.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, fedlens.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_config_preset_and_export_leave_numpy_unloaded(baseline_run, tmp_path):
    code = ("import sys\n"
            "from fedlens.cli import main\n"
            "from fedlens.config import load_config\n"
            "cfg, run, out = sys.argv[1:]\n"
            "load_config(cfg)\n"
            "assert main(['preset', 'baseline', '--out', out]) == 0\n"
            "assert main(['export', run, '--long', '--out', out + '/long.csv']) == 0\n"
            "print('numpy' in sys.modules)")
    argv = [sys.executable, "-c", code, str(baseline_run["cfg"]), str(baseline_run["out"]),
            str(tmp_path)]
    out = subprocess.run(argv, env=package_env(), check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_export_loads_neither_config_nor_dataclasses_nor_numpy(baseline_run, tmp_path):
    unused = ("fedlens.config", "dataclasses", "inspect", "numpy")
    code = ("import sys\n"
            f"unused = {unused!r}\n"
            "print(any(name in sys.modules for name in unused))\n"
            "from fedlens.cli import main\n"
            "run, out = sys.argv[1:]\n"
            "assert main(['export', run, '--long', '--out', out]) == 0\n"
            "print([name for name in unused if name in sys.modules])")
    argv = [sys.executable, "-c", code, str(baseline_run["out"]), str(tmp_path / "long.csv")]
    lines = subprocess.run(argv, env=package_env(), check=True, capture_output=True,
                           text=True).stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("the interpreter's start-up already loads one of " + ", ".join(unused))
    assert lines[-1] == "[]"


def test_metrics_loads_neither_config_nor_dataclasses(dump_run, tmp_path):
    unused = ("fedlens.config", "dataclasses")
    code = ("import sys\n"
            f"unused = {unused!r}\n"
            "print(any(name in sys.modules for name in unused))\n"
            "from fedlens.cli import main\n"
            "dumps, out = sys.argv[1:]\n"
            "assert main(['metrics', dumps, '--out', out]) == 0\n"
            "print([name for name in unused if name in sys.modules])")
    argv = [sys.executable, "-c", code, str(dump_run["dumps"]), str(tmp_path / "m.csv")]
    lines = subprocess.run(argv, env=package_env(), check=True, capture_output=True,
                           text=True).stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("the interpreter's start-up already loads one of " + ", ".join(unused))
    assert lines[-1] == "[]"
    assert read_csv(tmp_path / "m.csv")


def test_run_and_metrics_leave_numpy_ma_unloaded(tmp_path):
    cfg = write_config(tmp_path / "ma.cfg", tmp_path / "out",
                       "dump_features = true\ndump_models = true\n")
    code = ("import sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from fedlens.cli import main\n"
            "cfg, dumps = sys.argv[1:]\n"
            "assert main(['run', cfg]) == 0\n"
            "assert main(['metrics', dumps]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    argv = [sys.executable, "-c", code, str(cfg), str(tmp_path / "out" / "dumps")]
    lines = subprocess.run(argv, env=package_env(), check=True, capture_output=True,
                           text=True).stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert lines[-1] == "False"


def test_divergence_exits_3_with_one_stderr_line(tmp_path):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "diverge.cfg", out_dir)
    cfg.write_text(cfg.read_text() + "\n[fed]\nlr = 1e100\n")
    proc = subprocess.run([sys.executable, "-m", "fedlens.cli", "run", str(cfg)],
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ("error: NumericError: round 1, client 0, local training: "
                           "non-finite activation leaving layer 2\n")
    assert not out_dir.exists()


def test_blas_thread_count_does_not_change_outputs(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas{threads}"
        cfg = write_config(tmp_path / f"blas{threads}.cfg", out_dir)
        env = package_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "fedlens.cli", "run", str(cfg)],
                       env=env, check=True, capture_output=True)
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in ("metrics.csv", "accuracy.csv")})
    assert outputs[0] == outputs[1]


class TestExport:
    def test_long_table_merges_and_adds_relative_changes(self, baseline_run,
                                                         capsys):
        assert main(["export", str(baseline_run["out"]), "--long"]) == 0
        capsys.readouterr()
        long_path = baseline_run["out"] / "long.csv"
        assert long_path.read_text().splitlines()[0] == CSV_HEADER
        records = read_csv(long_path)
        names = {r.metric for r in records}
        assert {"sigma_w", "train_acc", "rel_sigma_w", "rel_train_acc"} <= names
        vm = value_map(records)
        want = relative_change(vm[(2, "pre", 0, 0, "sigma_w")],
                               vm[(2, "post", 0, 0, "sigma_w")])
        assert vm[(2, "delta", 0, 0, "rel_sigma_w")] == want

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert main(["export", str(tmp_path)]) == 2
        assert "metrics.csv" in capsys.readouterr().err

    def test_a_digit_flipped_to_an_exponent_exits_3_naming_the_file(self, baseline_run,
                                                                     tmp_path, capsys):
        # e.g. 0.9644584844823787 read as 0.9e44584844823787, which is inf
        for name in ("metrics.csv", "accuracy.csv"):
            shutil.copy(baseline_run["out"] / name, tmp_path / name)
        metrics = tmp_path / "metrics.csv"
        text = metrics.read_text()
        found = re.search(r",(0\.[1-9])[0-9]([1-9][0-9]{3,})\n", text)
        flipped = f"{found[1]}e{found[2]}"
        metrics.write_text(f"{text[:found.start()]},{flipped}\n{text[found.end():]}")
        line = text.count("\n", 0, found.start()) + 1
        rnd, phase, client, layer, metric = text.splitlines()[line - 1].split(",")[:5]
        key = (int(rnd), phase, int(client), int(layer), metric)
        assert main(["export", str(tmp_path), "--long"]) == 3
        assert capsys.readouterr().err == (f"error: FormatError: {metrics}: line {line}: "
                                           f"record {key} has non-finite value inf\n")
        assert not (tmp_path / "long.csv").exists()

    def test_unparsable_value_exits_3_naming_file_and_line(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(f"{CSV_HEADER}\n2,pre,0,0,sigma_w,abc\n")
        assert main(["export", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"FormatError: {metrics}: line 2: " in err
