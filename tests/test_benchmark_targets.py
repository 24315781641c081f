"""The functions the benchmark traces still exist under their dotted paths.

perfbench/layers.py names every traced function by dotted path, and the
tracer records a path that no longer resolves as absent instead of failing.
Deleting or renaming a traced function would then only show as a missing
per-layer number, so this test resolves every target with the tracer's own
lookup. It reads perfbench/ without importing it as a package.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load("tracer")


@pytest.mark.parametrize("path", sorted(load("layers").TARGETS))
def test_traced_target_resolves(path):
    assert TRACER._resolve(path) is not None, f"{path} is gone"
