"""Checks on the CSVs that fedlens writes.

The benchmark parses the CSVs itself rather than through fedlens, so a
change to the package cannot also change how its outputs are judged. Each
check returns a list of problems; an empty list means the outputs are right.
"""

from __future__ import annotations

HEADER = "round,phase,client,layer,metric,value"


def parse_rows(text: str):
    """[(key, value)] with key = (round, phase, client, layer, metric)."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"expected header {HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"line {number}: expected 6 fields, got {len(parts)}")
        rnd, phase, client, layer, metric, value = parts
        rows.append(((int(rnd), phase, int(client), int(layer), metric), float(value)))
    return rows


def close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def against_reference(rows, ref_rows, rel: float, label: str):
    """Same keys in the same order, values within `rel` relative."""
    keys = [k for k, _ in rows]
    ref_keys = [k for k, _ in ref_rows]
    if keys != ref_keys:
        extra = sorted(set(keys) - set(ref_keys))[:3]
        missing = sorted(set(ref_keys) - set(keys))[:3]
        return [f"{label}: row keys differ from the reference "
                f"({len(keys)} vs {len(ref_keys)} rows; extra {extra}, missing {missing})"]
    bad = [(k, v, r) for (k, v), (_, r) in zip(rows, ref_rows) if not close(v, r, rel)]
    if bad:
        k, v, r = bad[0]
        return [f"{label}: {len(bad)} values differ from the reference by more than "
                f"{rel:g} relative, first {k}: {v!r} vs {r!r}"]
    return []


# Metrics that `fedlens metrics` recomputes from a capture's dumps; the rel_*
# rows it adds are checked through long.csv instead.
CAPTURE_METRICS = ("sigma_w", "sigma_b", "tr_w", "tr_b", "tr_t", "alignment",
                   "dist_l1_norm", "dist_mse", "dist_l1", "dist_cos")


def dump_parity(offline_rows, online_rows, tol: float = 1e-6):
    """Offline metrics recomputed from dumps match the online ones: the same
    keys for every pre/post/delta capture metric, values within `tol`. Every
    capture must have been dumped with its model, as on `dumps-roundtrip`."""
    def captures(rows):
        return {k: v for k, v in rows
                if k[4] in CAPTURE_METRICS and k[1] in ("pre", "post", "delta")}

    offline, online = captures(offline_rows), captures(online_rows)
    if not online:
        return ["metrics.csv has no capture rows to compare with"]
    if set(offline) != set(online):
        missing = sorted(set(online) - set(offline))
        extra = sorted(set(offline) - set(online))
        return [f"metrics_from_dumps.csv: capture rows differ from metrics.csv "
                f"({len(missing)} missing, first {missing[:2]}; "
                f"{len(extra)} extra, first {extra[:2]})"]
    bad = [(k, v, online[k]) for k, v in offline.items()
           if abs(v - online[k]) > tol * max(1.0, abs(v), abs(online[k]))]
    if bad:
        k, a, b = bad[0]
        return [f"metrics_from_dumps.csv: {len(bad)} of {len(online)} values differ "
                f"from metrics.csv by more than {tol:g}, first {k}: {a!r} vs {b!r}"]
    return []


def relative_change(pre: float, post: float) -> float:
    denom = abs(pre) + abs(post)
    return 0.0 if denom == 0.0 else abs(post - pre) / denom * 100.0


def long_export(long_rows, source_rows):
    """`export --long` holds every source row plus one rel_<metric> delta row
    for each (round, client, layer, metric) observed both pre and post."""
    expected = dict(source_rows)
    phases = {}
    for (rnd, phase, client, layer, metric), value in source_rows:
        if phase in ("pre", "post"):
            phases.setdefault((rnd, client, layer, metric), {})[phase] = value
    for (rnd, client, layer, metric), both in phases.items():
        if len(both) == 2:
            expected[(rnd, "delta", client, layer, f"rel_{metric}")] = relative_change(
                both["pre"], both["post"])
    got = dict(long_rows)
    if len(got) != len(long_rows):
        return ["long.csv repeats a row key"]
    if set(got) != set(expected):
        return [f"long.csv keys differ: {len(set(got) - set(expected))} unexpected, "
                f"{len(set(expected) - set(got))} missing"]
    bad = [k for k, v in expected.items() if not close(got[k], v, 1e-12)]
    if bad:
        return [f"long.csv: {len(bad)} values disagree with the run's CSVs, first {bad[0]}"]
    return []
