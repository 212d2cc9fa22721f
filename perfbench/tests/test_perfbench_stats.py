"""The percentile rule and the spread the benchmark is accepted by."""

import statistics

import pytest

from perfbench.stats import (
    geomean,
    percentile,
    relative_spread,
    samples_beyond,
    summarize,
)


def test_nearest_rank_percentiles_are_observed_samples():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([0.5, 0.25, 0.75], 50) == 0.5
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        percentile([], 50)
    for q in (0, -1, 101):
        with pytest.raises(ValueError):
            percentile([1.0], q)


def test_samples_beyond_follows_the_ten_sample_rule():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1500, 99) == 15
    assert samples_beyond(0, 50) == 0


def test_relative_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.1, 9.9, 11.5]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert relative_spread([3.0] * 5) == 0.0


def test_summarize_and_geomean():
    rows = summarize([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 2.0},
                      {"a": 2.0, "b": 2.0}])
    assert rows["a"]["median"] == 2.0 and rows["b"]["spread"] == 0.0
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
