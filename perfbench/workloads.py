"""The benchmark's workloads: shipped presets, resized.

Each workload starts from the config text that `fedlens preset` writes, so
it follows the shipped preset as the code changes. Only the run length,
the seed, the output directory and the switches named below are rewritten.
Run lengths are cut from the presets' 30 rounds so that several repetitions
fit one measured run; every cut keeps the workload's mix of work per
round, which is what the per-layer numbers compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str
    overrides: dict = field(default_factory=dict)   # (section, key) -> value text
    dumps: bool = False    # `fedlens metrics` reads real dumps the run wrote


WORKLOADS = {w.name: w for w in (
    Workload(
        "baseline", "baseline",
        "capture-heavy: alignment SVDs dominate, local SGD is light; shows linalg and "
        "metrics gains and is the control for per-minibatch nn overhead",
        # 10 of 30 rounds: 5 eval rounds, 240 alignments, 800 minibatches
        {("fed", "rounds"): "10"}),
    Workload(
        "finetune-probe", "finetune",
        "overhead-bound: about 21k small minibatches of classifier fine-tuning and linear "
        "probes; shows per-minibatch nn and fed plumbing",
        # 6 of 30 rounds keeps one probe round per three eval rounds, as the
        # acceptance battery's probe_rounds = 22,24,26,28,30 does
        {("fed", "rounds"): "6", ("metrics", "probe_rounds"): "6"}),
    Workload(
        "dumps-roundtrip", "baseline",
        "baseline with feature and model dumps, then fedlens metrics and export --long; "
        "measures dump writing and reading and the offline CSV path",
        {("fed", "rounds"): "4", ("output", "dump_features"): "true",
         ("output", "dump_models"): "true"},
        dumps=True),
)}


def parse_config_text(text: str) -> dict:
    """section -> key -> value text; top-level keys sit under section ""."""
    sections = {"": {}}
    current = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def set_keys(text: str, overrides: dict) -> str:
    """Rewrite `key = value` lines of a config document; every key must exist."""
    pending = dict(overrides)
    current = ""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
        elif "=" in line and not line.startswith("#"):
            key = line.partition("=")[0].strip()
            if (current, key) in pending:
                raw = f"{key} = {pending.pop((current, key))}"
        lines.append(raw)
    if pending:
        missing = ", ".join(f"[{s}] {k}" for s, k in sorted(pending))
        raise KeyError(f"config keys not found: {missing}")
    return "\n".join(lines) + "\n"


def workload_config(workload: Workload, preset_text: str, seed: int, out_dir: str) -> str:
    overrides = dict(workload.overrides)
    overrides[("fed", "seed")] = str(seed)
    overrides[("output", "dir")] = out_dir
    return set_keys(preset_text, overrides)
