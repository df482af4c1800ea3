import statistics

import pytest

from stats import beyond, median, percentile, summary


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    assert percentile(reversed(values), 1) == 1


def test_percentile_of_nothing_and_bad_q():
    assert percentile([], 50) is None
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_ten_beyond_p99_needs_a_thousand_samples():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(0, 99) == 0


def test_median_matches_statistics():
    for values in ([3, 1, 2], [4, 1, 3, 2], [5.5], list(range(17))):
        assert median(values) == statistics.median(values)
    assert median([]) is None


def test_summary_scales_and_counts():
    s = summary(list(range(1000, 0, -1)), scale=1e-3)
    assert s == {"n": 1000, "p50": 0.5, "p99": 0.99, "beyond_p99": 10}
    assert summary([]) == {"n": 0, "p50": 0.0, "p99": 0.0, "beyond_p99": 0}
