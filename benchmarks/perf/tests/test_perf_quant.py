"""The percentile rule and the summaries built on it."""

import statistics

import pytest

from quant import estimate, percentile, summary, supported_percentile


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 99.0) == 99
    assert percentile(samples, 100.0) == 100
    assert percentile([5.0, 1.0, 3.0], 99.0) == 5.0   # n < 100: the max
    assert percentile([7.0], 50.0) == 7.0


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    got = summary(values)
    assert (got["q1"], got["median"], got["q3"], got["n"]) == (q1, q2, q3, 10)
    assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_estimate_reports_the_favourable_quartile_of_rates_and_costs():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert estimate(values)["value"] == q2
    assert estimate(values, "higher")["value"] == q3
    assert estimate(values, "lower")["value"] == q1
    assert estimate([2.5], "higher")["value"] == 2.5
