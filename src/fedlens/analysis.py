"""Working with metric record logs: deltas, rank correlation, CSV round-trips."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError
from .metrics import MetricRecord, relative_change

CSV_HEADER = "round,phase,client,layer,metric,value"


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


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((dx @ dx) * (dy @ dy))
    return float(dx @ dy / denom) if denom > 0 else 0.0


def records_to_csv(records) -> str:
    """Canonical CSV text: fixed header, rows sorted by the full key tuple."""
    lines = [CSV_HEADER]
    for r in sorted(records, key=MetricRecord.sort_key):
        lines.append(f"{r.round},{r.phase},{r.client},{r.layer},{r.metric},{r.value!r}")
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    Path(path).write_text(records_to_csv(records), newline="\n")


def read_csv(path):
    """Parse a metric CSV written by this package back into records."""
    text = Path(path).read_text()
    lines = text.splitlines()
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
        records.append(MetricRecord(int(rnd), phase, int(client), int(layer),
                                    metric, float(value)))
    return records
