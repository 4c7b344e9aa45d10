"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import pytest

from stats import nearest_rank, samples_beyond, spread, tail_percentile


def test_nearest_rank_picks_ceiling_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([7.0], 99) == 7.0


def test_rank_is_exact_for_decimal_fractions():
    # 0.99 * 1000 in binary floating point is not 990; the rank must be.
    values = list(range(1, 1001))
    assert nearest_rank(values, 99) == 990
    assert samples_beyond(1000, 99) == 10


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000)), 99) == 989
    # 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
    assert samples_beyond(999, 99) == 9
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(20)), 50) == 9
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile([], 50) is None


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_rejects_out_of_range_percentile(q):
    with pytest.raises(ValueError):
        nearest_rank([1.0], q)


def test_rejects_empty_samples():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_spread_is_iqr_over_median():
    out = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert out["median"] == 3.0
    assert out["iqr_share"] == pytest.approx((4.5 - 1.5) / 3.0)
