"""Metric records hold finite values; rank correlation values are worked out
by hand."""

import math
import re

import numpy as np
import pytest

from conftest import average_ranks, spearman

from fedlens.analysis import MetricRecord
from fedlens.errors import NumericError


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_record_cannot_hold_a_non_finite_value(value):
    with pytest.raises(NumericError, match="^" + re.escape(
            f"record (2, 'pre', 1, 0, 'tr_w') has non-finite value {value!r}") + "$"):
        MetricRecord(2, "pre", 1, 0, "tr_w", value)


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
