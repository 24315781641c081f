"""The benchmark's own checks still pass, and the functions it traces still
exist under their dotted paths.

perfbench/layers.py names every traced function by dotted path, and the
tracer records a path that no longer resolves as absent instead of failing.
Deleting or renaming a traced function would then only show as a missing
per-layer number, so this test resolves every target with the tracer's own
lookup. A function kept only so that its path resolves would read 0 just the
same, so every target must also be used somewhere in the package. It also
checks the file hooks' path arguments and the flop count's shape arithmetic
against the network. Each workload's traced run must count the calls that
`layers.expected_counts` derives from its config and write the stored
reference outputs, the checks that turn a benchmark run incorrect. It reads
perfbench/ without importing it as a package.
"""

import ast
import gzip
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedlens.cli import main
from fedlens.nn import Network, mlp_specs

from conftest import linear_hidden

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "fedlens"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = load("tracer")


@pytest.mark.parametrize("path", sorted(load("layers").TARGETS))
def test_traced_target_resolves(path):
    assert TRACER._resolve(path) is not None, f"{path} is gone"


def used_names():
    """Names the package reads as a bare name or an attribute, outside the
    body of a function of that name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return used


USED = used_names()


@pytest.mark.parametrize("path", sorted(load("layers").TARGETS))
def test_traced_target_is_used_by_the_package(path):
    # matched by name, so a same-named attribute elsewhere would also count
    assert path.rsplit(".", 1)[1] in USED, f"{path} is never called in src/fedlens"


LAYERS = load("layers")
FILE_HOOKS = sorted(path for path, hook in LAYERS.TARGETS.items()
                    if hook is not None and hook.__qualname__.startswith("_file_hook."))


@pytest.mark.parametrize("path", FILE_HOOKS)
def test_file_hook_reads_the_path_parameter(path):
    # the hook reads the file's size from a positional index, so that index
    # must stay the target's `path` parameter
    path_arg = inspect.getclosurevars(LAYERS.TARGETS[path]).nonlocals["path_arg"]
    target = TRACER._resolve(path)[2]
    assert list(inspect.signature(target).parameters)[path_arg] == "path"


@pytest.mark.parametrize("specs", [
    linear_hidden(mlp_specs(5, [6, 4], 3)),
    mlp_specs(5, [5, 5, 4], 3, residual=True, residual_width=3, residual_inner=1),
    mlp_specs(5, [5, 5, 4], 3, residual=True, residual_width=7, residual_inner=3),
], ids=["plain", "residual_inner_1", "residual_inner_3"])
def test_flop_count_covers_every_weight(specs):
    # a forward pass does one multiply-add per weight entry and batch row
    net = Network(specs)
    weights = sum(w.size for maps in net._maps for w, _, _, _ in maps)
    assert LAYERS._matmul_macs(net.specs) == weights


WORKLOADS = load("workloads")
VERIFY = load("verify")


def bench_env():
    """The environment perfbench/run.py gives the commands it measures."""
    env = dict(os.environ)
    env.pop("FEDLENS_THREADS", None)
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")})
    env["PYTHONPATH"] = str(SRC.parent)
    env["PYTHONHASHSEED"] = "0"
    return env


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_workload_matches_closed_form_counts_and_reference(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    assert main(["preset", workload.preset, "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "run"
    text = WORKLOADS.workload_config(
        workload, (tmp_path / f"{workload.preset}.cfg").read_text(), 1, str(run_dir))
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(text)
    commands = [("run", cfg_path)] + [("metrics", run_dir / "dumps")] * workload.dumps
    docs = []
    for command, arg in commands:
        spans = tmp_path / f"spans-{command}.json"
        done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans),
                               command, str(arg)], env=bench_env(), capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        docs.append(json.loads(spans.read_text()))
    table = TRACER.SpanTable(docs)
    counted = {key: value(table) for key, _, _, value in LAYERS.PER_LAYER}
    expected = LAYERS.expected_counts(WORKLOADS.parse_config_text(text),
                                      offline=workload.dumps)
    assert {key: counted[key] for key in expected} == expected
    reference = PERFBENCH / "reference" / name
    rows = VERIFY.parse_rows((run_dir / "metrics.csv").read_text())
    ref_rows = VERIFY.parse_rows(gzip.decompress(
        (reference / "metrics.csv.gz").read_bytes()).decode())
    assert VERIFY.against_reference(rows, ref_rows, 1e-9, "metrics.csv") == []
    assert (run_dir / "accuracy.csv").read_bytes() == gzip.decompress(
        (reference / "accuracy.csv.gz").read_bytes())
