"""Benchmark of the fedlens CLI on one workload.

    python3 perfbench/run.py --workload baseline --seed 1 --seconds 25 --trace 0

Run it from the repository root. It drives `python -m fedlens.cli` from
`src/` as child processes, one at a time, and prints one JSON object as the
last line of its output:

* `--trace 0` repeats a cold start (`setup_s`) and the workload's commands
  for `--seconds` seconds and reports the end-to-end metrics;
* `--trace 1` repeats the commands untraced for `--seconds` seconds, as the
  base of the tracing overhead, then runs them once more under
  perfbench/tracer.py and reports the per-layer metrics.

Every command must exit 0 and write outputs that pass the checks in
verify.py. A command that does not is counted in `failed` and the run goes
on. Work files go to .perfbench-work/ under the current directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import verify
from tracer import SpanTable
from workloads import WORKLOADS, parse_config_text, workload_config

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference"
SRC = Path("src")
WORK = Path(".perfbench-work")
DEFAULT_SEED = 1
BLAS_THREADS = 1        # every child, both sides of every comparison; <= nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPS = 2
BUDGET_S = 170.0        # children are killed once the whole run reaches this
REFERENCE_REL = 1e-9

SETUP_CODE = ("import sys, fedlens.cli\n"
              "from fedlens.config import load_config\n"
              "load_config(sys.argv[1])\n")
ENV_CODE = """\
import importlib.metadata as md, json, platform
def version(name):
    try:
        return md.version(name)
    except md.PackageNotFoundError:
        return "absent"
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": blas.get("name"), "version": blas.get("version")}
except Exception:  # older numpy has no dict form
    blas = {"name": "unknown", "version": "unknown"}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": version("scipy"), "blas": blas}))
"""

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("metrics_s", "s"),
              ("export_s", "s"), ("peak_rss_mb", "MB"), ("ops_ok_frac", "frac"))

# What each command writes, relative to the run directory.
OUTPUTS = {"run": ("metrics.csv", "accuracy.csv"),
           "metrics": ("dumps/metrics_from_dumps.csv",),
           "export": ("long.csv",)}


@dataclass
class Child:
    wall_s: float
    returncode: int
    rss_mb: float


class Children:
    """Runs children one at a time, with pinned threads, and counts failures."""

    def __init__(self, log_dir: Path, deadline: float):
        env = dict(os.environ)
        env.pop("FEDLENS_THREADS", None)
        env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        env["PYTHONPATH"] = str(SRC.resolve())
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.log_dir = log_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed_labels = []

    def run(self, label: str, argv) -> Child:
        self.attempted += 1
        log = self.log_dir / f"{label}.log"
        start = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(time.perf_counter() - start, proc.returncode, usage.ru_maxrss / 1024)
        if child.returncode != 0:
            last = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(label, f"exit code {child.returncode}: {' '.join(last)}")
        return child

    def fail(self, label: str, reason: str) -> None:
        print(f"FAIL {label}: {reason}", flush=True)
        if label not in self.failed_labels:
            self.failed_labels.append(label)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)


class OutputCheck:
    """Checks each command's outputs: format and cross-file consistency on
    first sight, and on the default seed agreement with the stored reference;
    later repetitions must be byte-identical to the first, and repeat its
    problems if it had any."""

    def __init__(self, workload, run_dir: Path, seed: int):
        self.workload = workload
        self.run_dir = run_dir
        self.reference = REFERENCE / workload.name if seed == DEFAULT_SEED else None
        self.first = {}
        self.first_problems = {}

    def check(self, command: str):
        problems = []
        for name in OUTPUTS[command]:
            path = self.run_dir / name
            if not path.is_file():
                problems.append(f"{name} was not written")
                continue
            data = path.read_bytes()
            if name in self.first:
                if data != self.first[name]:
                    problems.append(f"{name} differs from the first repetition")
                problems += self.first_problems[name]
                continue
            try:
                found = self._first_sight(name, data)
            except (ValueError, OSError) as exc:
                found = [f"{name}: {exc}"]
            self.first[name] = data
            self.first_problems[name] = found
            problems += found
        return problems

    def _rows(self, name):
        return verify.parse_rows(self.first[name].decode()) if name in self.first else None

    def _first_sight(self, name, data):
        rows = verify.parse_rows(data.decode())
        if name == "metrics.csv":
            ref = self._reference(name)
            return [] if ref is None else verify.against_reference(
                rows, verify.parse_rows(ref.decode()), REFERENCE_REL, name)
        if name == "accuracy.csv":
            ref = self._reference(name)
            return [] if ref is None or ref == data else [f"{name} differs from the reference"]
        online = self._rows("metrics.csv")
        if name.endswith("metrics_from_dumps.csv"):
            if not self.workload.dumps:
                return [] if not rows else [f"{name}: rows from an empty dump directory"]
            if online is None:
                return [f"{name}: no metrics.csv to compare with"]
            return verify.dump_parity(rows, online)
        accuracy = self._rows("accuracy.csv")
        if online is None or accuracy is None:
            return [f"{name}: the run's CSVs are missing"]
        return verify.long_export(rows, online + accuracy)

    def _reference(self, name):
        path = self.reference / f"{name}.gz" if self.reference else None
        return gzip.decompress(path.read_bytes()) if path and path.is_file() else None


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe(name, values, unit) -> str:
    return (f"{name}: median {statistics.median(values):.4f} {unit} "
            f"(min {min(values):.4f}, max {max(values):.4f}, n={len(values)})")


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.deadline = time.monotonic() + BUDGET_S
        self.base = WORK / self.workload.name
        shutil.rmtree(self.base, ignore_errors=True)
        (self.base / "logs").mkdir(parents=True)
        self.run_dir = self.base / "run"
        self.cfg_path = self.base / "workload.cfg"
        self.children = Children(self.base / "logs", self.deadline)
        self.check = OutputCheck(self.workload, self.run_dir, args.seed)
        self.cfg = None

    def cli(self, *args):
        return [sys.executable, "-m", "fedlens.cli", *args]

    def prepare(self) -> bool:
        """Record the environment and write the workload config; the preset
        command also warms the bytecode and file caches before any timing."""
        info = {}
        if self.children.run("env", [sys.executable, "-c", ENV_CODE]).returncode == 0:
            try:
                info = json.loads((self.base / "logs" / "env.log").read_text().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                self.children.fail("env", f"unreadable environment probe: {exc}")
        info.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                     "blas_threads": BLAS_THREADS, "FEDLENS_THREADS": "unset",
                     "commit": git_commit(), "workload": self.workload.name,
                     "seed": self.args.seed, "seconds": self.args.seconds,
                     "trace": self.args.trace})
        print("env " + json.dumps(info, sort_keys=True), flush=True)

        preset_dir = self.base / "preset"
        child = self.children.run("preset", self.cli("preset", self.workload.preset,
                                                     "--out", str(preset_dir)))
        preset_file = preset_dir / f"{self.workload.preset}.cfg"
        if child.returncode != 0 or not preset_file.is_file():
            return False
        text = workload_config(self.workload, preset_file.read_text(), self.args.seed,
                               str(self.run_dir))
        self.cfg_path.write_text(text)
        self.cfg = parse_config_text(text)
        return True

    def rep(self, tag: str, traced: bool = False, setup: bool = False):
        """One pass over the workload's commands; {command: Child}. With
        `setup`, a cold start comes first, so that set-up samples spread over
        the run like the others instead of bunching at its start."""
        out = {}
        if setup:
            out["setup"] = self.children.run(f"{tag}-setup", [sys.executable, "-c", SETUP_CODE,
                                                              str(self.cfg_path)])
        shutil.rmtree(self.run_dir, ignore_errors=True)
        commands = (("run", ("run", str(self.cfg_path))),
                    ("metrics", ("metrics", str(self.run_dir / "dumps"))),
                    ("export", ("export", str(self.run_dir), "--long")))
        for command, cli_args in commands:
            if command == "metrics" and not self.workload.dumps:
                # nothing was dumped: time the offline command on an empty dump dir
                (self.run_dir / "dumps").mkdir(parents=True, exist_ok=True)
            label = f"{tag}-{command}"
            if traced:
                argv = [sys.executable, str(TRACER), str(self.base / f"spans-{command}.json"),
                        *cli_args]
            else:
                argv = self.cli(*cli_args)
            out[command] = child = self.children.run(label, argv)
            if child.returncode == 0:
                for problem in self.check.check(command):
                    self.children.fail(label, problem)
        return out

    def timed_reps(self, reserve: float, setup: bool):
        """Repeat the commands for --seconds (at least MIN_REPS times), leaving
        `reserve` times the slowest repetition before the deadline."""
        reps = []
        loop_start = time.monotonic()
        while True:
            now = time.monotonic()
            if len(reps) >= MIN_REPS and now - loop_start >= self.args.seconds:
                break
            if reps and now + reserve * max(rep_wall(r) for r in reps) > self.deadline:
                print(f"note: stopped after {len(reps)} repetitions to meet the time budget")
                break
            reps.append(self.rep(f"rep{len(reps) + 1}", setup=setup))
        return reps

    def end_to_end(self):
        reps = self.timed_reps(reserve=1.5, setup=True)
        samples = {
            "run_s": [r["run"].wall_s for r in reps],
            "setup_s": [r["setup"].wall_s for r in reps],
            "metrics_s": [r["metrics"].wall_s for r in reps],
            "export_s": [r["export"].wall_s for r in reps],
            "peak_rss_mb": [r["run"].rss_mb for r in reps],
        }
        for (name, unit) in END_TO_END[:-1]:
            print(describe(name, samples[name], unit))
        values = {name: statistics.median(samples[name]) for name, _ in END_TO_END[:-1]}
        failed = self.children.failed
        attempted = self.children.attempted
        values["ops_ok_frac"] = (attempted - failed) / attempted
        print(f"ops_failed_frac: {failed / attempted:.4f} ({failed} of {attempted} commands)")
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self):
        reps = self.timed_reps(reserve=3.0, setup=False)
        base = statistics.median([rep_wall(r) for r in reps])
        traced = self.rep("traced", traced=True)
        traced_wall = rep_wall(traced)
        docs = []
        for command in traced:
            path = self.base / f"spans-{command}.json"
            if path.is_file():
                docs.append(json.loads(path.read_text()))
            else:
                self.children.fail(f"traced-{command}", "no span file written")
        table = SpanTable(docs)
        for name, calls, busy, own in table.summary():
            print(f"span {name}: calls {calls} busy {busy:.4f} s self {own:.4f} s")
        if table.absent:
            print("absent (not wrapped): " + ", ".join(sorted(table.absent)))
        if table.hook_errors:
            print(f"note: {table.hook_errors} counter hook errors")
        metrics = {name: {"value": value(table), "unit": unit}
                   for name, unit, _, value in layers.PER_LAYER}
        for name, body in metrics.items():
            print(f"{name}: {body['value']} {body['unit']}")
        expected = layers.expected_counts(self.cfg, offline=self.workload.dumps)
        for key, want in expected.items():
            got = metrics[key]["value"]
            print(f"count {key}: {got}, closed form {want}")
            if got != want:
                # a wrapper missed a call site, so the per-layer metrics are wrong
                self.children.fail("traced-run", f"{key} counted {got}, closed form {want}")
        overhead = traced_wall / base - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        print(f"trace_overhead_frac: {overhead:.4f} (traced {traced_wall:.3f} s over "
              f"untraced median {base:.3f} s of {len(reps)} repetitions)")
        return metrics


def rep_wall(rep) -> float:
    return sum(child.wall_s for child in rep.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedlens" / "cli.py").is_file():
        print("perfbench: src/fedlens/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(args)
    if not bench.prepare():
        print("perfbench: could not write the workload config", file=sys.stderr)
        return 1
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    failed = bench.children.failed
    print(json.dumps({"correct": failed == 0, "attempted": bench.children.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
