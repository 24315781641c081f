"""In-memory span tracer that wraps functions named by dotted path.

The tracer lives outside the package it measures. `Tracer.install` replaces
a function (or a method, classmethod or staticmethod of a class) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began. A module-level function is replaced in every
loaded module of its package that holds it, because modules import helpers
by name (`from .nn import sgd_epochs`). A path that does not resolve is
recorded as absent instead of raising, so the same target list works on
code that has since deleted a helper.

Spans stay in memory and are written once, as JSON, when the traced program
ends. `SpanTable` reads one or more of those files back and answers busy
time, self time and call counts. The tracer keeps one span stack per
process, so it is meant for single-threaded runs.

Run as a script it traces one `fedlens` CLI command:

    python perfbench/tracer.py SPANS.json run CONFIG
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time


class Tracer:
    def __init__(self):
        self.names = []      # span names; a span refers to one by index
        self.spans = []      # [name index, start ns, end ns, parent span index or -1]
        self.counters = {}
        self.absent = []
        self.hook_errors = 0
        self._stack = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        """Return `fn` wrapped to record a span; `hook(tracer, args, kwargs)`
        runs after each call to update counters and may not change results."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    try:
                        hook(tracer, args, kwargs)
                    except Exception:  # noqa: BLE001 - a counter must never break the run
                        tracer.hook_errors += 1

        return traced

    def install(self, path, hook=None) -> bool:
        """Wrap the function at a dotted path; False (and noted) if absent."""
        target = _resolve(path)
        if target is None:
            self.absent.append(path)
            return False
        owner, attr, raw = target
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(raw.__func__, path, hook)))
            else:
                setattr(owner, attr, self.wrap(raw, path, hook))
            return True
        wrapped = self.wrap(raw, path, hook)
        package = owner.__name__.split(".")[0]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
        return True

    def to_json(self, **extra) -> dict:
        doc = {"names": self.names, "spans": self.spans, "counters": self.counters,
               "absent": self.absent, "hook_errors": self.hook_errors}
        doc.update(extra)
        return doc


def import_package(package: str) -> None:
    """Import every submodule of a package so that wrapping sees every alias."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        importlib.import_module(info.name)


def _resolve(path):
    """(owner, attribute, raw object) for a dotted path, or None."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name and not module_name.startswith(exc.name):
                raise  # the module exists but one of its own imports is missing
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        attr = parts[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        else:
            raw = func = getattr(owner, attr, None)
        if not callable(func):
            return None
        return owner, attr, raw
    return None


class SpanTable:
    """Span statistics over one or more trace documents.

    Busy time of a set of names is the time covered by their spans, counting
    a span nested inside another span of the set once. Self time of a name is
    its spans' time minus the time of their direct child spans.
    """

    def __init__(self, docs):
        self.spans = []      # (name, start ns, end ns, parent index in self.spans)
        self.counters = {}
        self.absent = set()
        self.hook_errors = 0
        self.import_s = 0.0
        for doc in docs:
            base = len(self.spans)
            self.import_s += doc.get("import_s", 0.0)
            for name_id, start, end, parent in doc["spans"]:
                self.spans.append((doc["names"][name_id], start, end,
                                   parent + base if parent >= 0 else -1))
            for key, value in doc["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.absent.update(doc["absent"])
            self.hook_errors += doc["hook_errors"]
        self._child_ns = [0] * len(self.spans)
        self._by_name = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            self._by_name.setdefault(name, []).append(index)
            if parent >= 0:
                self._child_ns[parent] += end - start

    def calls(self, name) -> int:
        return len(self._by_name.get(name, ()))

    def busy_s(self, *names) -> float:
        group = set(names)
        total = 0
        for name in group:
            for index in self._by_name.get(name, ()):
                _, start, end, parent = self.spans[index]
                if not self._has_ancestor_in(parent, group):
                    total += end - start
        return total / 1e9

    def self_s(self, name) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] - self._child_ns[i]
                   for i in self._by_name.get(name, ())) / 1e9

    def under_s(self, name, parent_name) -> float:
        """Time of spans of `name` whose direct parent span is `parent_name`."""
        total = 0
        for index in self._by_name.get(name, ()):
            _, start, end, parent = self.spans[index]
            if parent >= 0 and self.spans[parent][0] == parent_name:
                total += end - start
        return total / 1e9

    def counter(self, key):
        return self.counters.get(key, 0)

    def summary(self):
        """(name, calls, busy s, self s) for every name seen, busiest first."""
        rows = [(name, self.calls(name), self.busy_s(name), self.self_s(name))
                for name in sorted(self._by_name)]
        return sorted(rows, key=lambda row: -row[2])

    def _has_ancestor_in(self, index, group) -> bool:
        while index >= 0:
            if self.spans[index][0] in group:
                return True
            index = self.spans[index][3]
        return False


def main(argv) -> int:
    """Trace one fedlens CLI command and write its spans to argv[0]."""
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import fedlens.cli
    import_s = time.perf_counter() - start

    import layers  # the benchmark's target list, beside this file

    tracer = Tracer()
    import_package("fedlens")
    for path, hook in layers.TARGETS.items():
        tracer.install(path, hook)
    try:
        return fedlens.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
