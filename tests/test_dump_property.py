"""Damaged dump directories and run CSVs are read or refused cleanly.

`fedlens metrics` on the dumps of a tiny 2-round run, and `fedlens export`
on its CSVs, each with one file damaged, end one of two ways: exit 0 with
warnings only for unpaired feature files, or exit 3 with exactly one
`error: FormatError:` line that names a damaged file. Any other exit code,
exception type or stderr line is a fault. The damage is a flipped byte, a
truncation, a deleted file, a file renamed to another round or client, or
two files swapped.
"""

import contextlib
import io
import itertools
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedlens.cli import main

CONFIG = """\
scenario = baseline

[data]
clients = 2
classes = 3
input_dim = 4
train_per_client = 12
test_per_client = 9

[model]
hidden = 4,3

[fed]
rounds = 2
local_epochs = 1
batch_size = 4
eval_cadence = 1

[metrics]
eval_per_class = 3

[output]
dir = {out_dir}
dump_features = true
dump_models = true
"""

UNPAIRED = re.compile(r"warning: round \d+ client \d+ layer \d+: missing (pre|post) dump, "
                      r"skipped$")
# the round and client fields of a dump file name
NAME_FIELDS = re.compile(r"_r(\d+)_c(\d+)_")
DUMP_DAMAGE = ("flip", "truncate", "delete", "rename", "swap")
# a run directory without metrics.csv is not one (exit 2), and CSV names
# hold no round or client
CSV_DAMAGE = ("flip", "truncate", "swap")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The run directory of one tiny 2-round run with feature and model dumps."""
    work = tmp_path_factory.mktemp("damage")
    cfg = work / "run.cfg"
    cfg.write_text(CONFIG.format(out_dir=work / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(cfg)]) == 0
    return work / "out"


@st.composite
def damage(draw, root, kind):
    """Damage one drawn file of `root` (two for a swap) in the given way;
    return the damaged file names."""
    names = sorted(p.name for p in root.iterdir())
    name = draw(st.sampled_from(names))
    path = root / name
    data = path.read_bytes()
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        path.write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
    elif kind == "truncate":
        path.write_bytes(data[:draw(st.integers(0, len(data) - 1))])
    elif kind == "delete":
        path.unlink()
    elif kind == "rename":
        here = tuple(int(v) for v in NAME_FIELDS.search(name).groups())
        # rounds and clients of the run and one past each
        r, m = draw(st.sampled_from(
            [t for t in itertools.product(range(1, 4), range(3)) if t != here]))
        name = NAME_FIELDS.sub(f"_r{r:05d}_c{m}_", name, count=1)
        os.replace(path, root / name)
    else:
        other = draw(st.sampled_from([n for n in names if n != name]))
        path.write_bytes((root / other).read_bytes())
        (root / other).write_bytes(data)
        return {name, other}
    return {name}


def run_cli(argv):
    """(exit code, stderr lines) of one CLI call, with warnings raised as errors."""
    err = io.StringIO()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


def assert_clean_ending(code, lines, root, damaged):
    event(f"exit {code}")
    if code == 0:
        assert all(UNPAIRED.match(line) for line in lines), lines
    else:
        assert code == 3 and len(lines) == 1, (code, lines)
        assert lines[0].startswith("error: FormatError: "), lines
        assert any(str(root / name) in lines[0] for name in damaged), (damaged, lines)


@pytest.mark.parametrize("kind", DUMP_DAMAGE)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_dumps_are_read_or_refused_cleanly(tiny_run, kind, data):
    with tempfile.TemporaryDirectory() as work:
        root = Path(work) / "dumps"
        shutil.copytree(tiny_run / "dumps", root)
        damaged = data.draw(damage(root, kind))
        code, lines = run_cli(["metrics", str(root), "--out", str(Path(work) / "m.csv")])
        assert_clean_ending(code, lines, root, damaged)


@pytest.mark.parametrize("kind", CSV_DAMAGE)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_damaged_run_csvs_export_or_are_refused_cleanly(tiny_run, kind, data):
    with tempfile.TemporaryDirectory() as work:
        root = Path(work) / "run"
        root.mkdir()
        for name in ("metrics.csv", "accuracy.csv"):
            shutil.copy(tiny_run / name, root / name)
        damaged = data.draw(damage(root, kind))
        code, lines = run_cli(["export", str(root), "--long",
                               "--out", str(Path(work) / "long.csv")])
        assert_clean_ending(code, lines, root, damaged)


def test_a_non_utf8_byte_in_a_run_csv_is_a_format_error(tiny_run, tmp_path):
    # found by the property above: read_csv let UnicodeDecodeError escape
    for name in ("metrics.csv", "accuracy.csv"):
        shutil.copy(tiny_run / name, tmp_path / name)
    data = (tmp_path / "accuracy.csv").read_bytes()
    (tmp_path / "accuracy.csv").write_bytes(bytes([data[0] ^ 0x80]) + data[1:])
    code, lines = run_cli(["export", str(tmp_path), "--long"])
    assert (code, lines) == (3, [f"error: FormatError: {tmp_path / 'accuracy.csv'}: "
                                 "not UTF-8 text at offset 0"])
