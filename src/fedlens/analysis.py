"""Metric records and their logs: relative changes and CSV round-trips."""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError, FormatError, NumericError

CSV_HEADER = "round,phase,client,layer,metric,value"
METRICS_CSV = "metrics.csv"
ACCURACY_CSV = "accuracy.csv"


class MetricRecord(namedtuple("MetricRecord", "round phase client layer metric value")):
    """One finite scalar observation; layer -1 marks whole-model metrics."""

    __slots__ = ()

    def __new__(cls, round, phase, client, layer, metric, value):
        if not math.isfinite(value):
            raise NumericError(f"record {(round, phase, client, layer, metric)} "
                               f"has non-finite value {value!r}")
        return tuple.__new__(cls, (round, phase, client, layer, metric, value))

    def sort_key(self):
        return self[:5]


def relative_change(pre: float, post: float) -> float:
    """Symmetric percentage change |post-pre| / (|pre|+|post|) * 100."""
    if math.isinf(abs(pre) + abs(post)):
        # both scaled by the larger, so neither sum overflows (|post-pre| <= |pre|+|post|)
        big = max(abs(pre), abs(post))
        pre, post = pre / big, post / big
    denom = abs(pre) + abs(post)
    if denom == 0.0:
        return 0.0
    return abs(post - pre) / denom * 100.0


def relative_change_records(records):
    """Symmetric percentage change for every metric observed both pre and post.

    Emits phase "delta" records named rel_<metric>, keyed like the inputs.
    """
    by_key = {}
    for r in records:
        if r.phase in ("pre", "post"):
            by_key.setdefault((r.round, r.client, r.layer, r.metric), {})[r.phase] = r.value
    out = []
    for (rnd, client, layer, metric), phases in by_key.items():
        if "pre" in phases and "post" in phases:
            out.append(MetricRecord(rnd, "delta", client, layer, f"rel_{metric}",
                                    relative_change(phases["pre"], phases["post"])))
    out.sort(key=MetricRecord.sort_key)
    return out


def records_to_csv(records) -> str:
    """Canonical CSV text: fixed header, rows sorted by the full key tuple."""
    lines = [CSV_HEADER]
    for r in sorted(records, key=MetricRecord.sort_key):
        lines.append(f"{r.round},{r.phase},{r.client},{r.layer},{r.metric},{r.value!r}")
    return "\n".join(lines) + "\n"


def check_dir_path(path, field: str) -> None:
    """Refuse a path that cannot be made a directory: the first of it and its
    ancestors that exists, a dangling link included, must be a directory."""
    path = Path(path)
    found = next(p for p in (path, *path.parents) if p.is_symlink() or p.exists())
    if not found.is_dir():
        raise ConfigError(f"{found} exists and is not a directory", field=field)


def write_atomic(path, text: str) -> None:
    """The target keeps its earlier bytes until the new text is whole; missing
    directories on its path are made."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, newline="\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(records, path) -> None:
    """`records_to_csv` text, written atomically."""
    write_atomic(path, records_to_csv(records))


def read_csv(path):
    """Parse a metric CSV written by this package back into records."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at offset {exc.start}") from None
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(f"{path}: expected header {CSV_HEADER!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(f"{path}: line {i}: expected 6 fields, got {len(parts)}")
        rnd, phase, client, layer, metric, value = parts
        try:
            records.append(MetricRecord(int(rnd), phase, int(client), int(layer),
                                        metric, float(value)))
        except ValueError as exc:
            raise FormatError(f"{path}: line {i}: {exc}") from None
    return records
