"""Metric records are finite, immutable values and their CSV writes are atomic;
rank correlation values are worked out by hand."""

import errno
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import average_ranks, spearman

from fedlens.analysis import MetricRecord, read_csv, write_csv
from fedlens.errors import NumericError


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_record_cannot_hold_a_non_finite_value(value):
    with pytest.raises(NumericError, match="^" + re.escape(
            f"record (2, 'pre', 1, 0, 'tr_w') has non-finite value {value!r}") + "$"):
        MetricRecord(2, "pre", 1, 0, "tr_w", value)


def test_a_record_is_an_immutable_value_with_named_fields(tmp_path):
    """Records are built by position or keyword, compare and hash by their
    fields, refuse assignment and round-trip through a CSV. A record is a named
    tuple, so it also equals the plain tuple of its fields and orders like one."""
    rec = MetricRecord(2, "pre", 1, 0, "tr_w", 0.5)
    same = MetricRecord(round=2, phase="pre", client=1, layer=0, metric="tr_w", value=0.5)
    assert (rec.round, rec.phase, rec.client, rec.layer, rec.metric, rec.value) == (
        2, "pre", 1, 0, "tr_w", 0.5)
    assert rec == same and hash(rec) == hash(same)
    assert rec != MetricRecord(2, "pre", 1, 0, "tr_w", 0.25)
    with pytest.raises(AttributeError):
        rec.value = 1.0
    assert rec.sort_key() == (2, "pre", 1, 0, "tr_w")
    records = [MetricRecord(1, "post", 0, -1, "test_acc", 0.75), rec]
    write_csv(records, tmp_path / "m.csv")
    assert read_csv(tmp_path / "m.csv") == records


def test_a_csv_write_that_fails_midway_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    write_csv([MetricRecord(1, "pre", 0, 0, "tr_w", 0.5)], path)
    before = path.read_bytes()
    real = Path.write_text

    def half_then_full_disk(self, text, **kwargs):
        real(self, text[:len(text) // 2], **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        write_csv([MetricRecord(r, "pre", 0, 0, "tr_w", 0.25) for r in range(1, 9)], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


class TestSpearman:
    def test_ties_share_the_mean_of_their_ranks(self):
        # sorted: 1 -> rank 1, 2 -> rank 2, the three 3s span ranks 3..5 -> 4
        assert np.array_equal(average_ranks([3, 1, 3, 2, 3]), [4, 1, 4, 2, 4])

    def test_tied_case_by_hand(self):
        # x ranks (1, 2.5, 2.5, 4), y ranks (1, 2, 3, 4); centred:
        # dx = (-1.5, 0, 0, 1.5), dy = (-1.5, -0.5, 0.5, 1.5)
        # rho = 4.5 / sqrt(4.5 * 5) = sqrt(0.9)
        assert spearman([10, 20, 20, 30], [1, 2, 3, 4]) == pytest.approx(
            math.sqrt(0.9), rel=1e-15)

    def test_constant_side_gives_zero(self):
        assert spearman([7, 7, 7, 7], [1, 2, 3, 4]) == 0.0
        assert spearman([1, 2, 3, 4], [0.5] * 4) == 0.0

    def test_reversed_order_gives_minus_one(self):
        assert spearman([1, 2, 3, 4, 5], [50, 40, 30, 20, 10]) == -1.0
