"""Percentiles and the sample counts reported with them."""

import statistics

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    xs = [5, 1, 4, 2, 3]
    assert stats.percentile(xs, 50) == 3
    assert stats.percentile(xs, 25) == 2
    assert stats.percentile(xs, 0) == 1 and stats.percentile(xs, 100) == 5
    assert stats.percentile(xs, 99) == pytest.approx(4.96)
    assert stats.percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(xs, 101)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(20) == 52
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(11) is None
    for n in range(12, 1500, 7):
        xs = list(range(n))
        p = stats.tail_percentile(n)
        if p is None:
            continue
        assert stats.beyond(xs, stats.percentile(xs, p)) >= stats.TAIL_SAMPLES, n
        if p < 99:
            assert stats.beyond(xs, stats.percentile(xs, p + 1)) < stats.TAIL_SAMPLES, n


def test_latency_summary_reports_counts():
    summary = stats.latency_summary([float(x) for x in range(1000)])
    assert summary["n"] == 1000
    assert summary["p50"] == pytest.approx(499.5)
    assert summary["p99_beyond"] == 10
    assert summary["tail_pct"] == 99
    small = stats.latency_summary([float(x) for x in range(137)])
    assert small["n"] == 137 and small["p99_beyond"] == 2
    assert small["tail_pct"] == 93
    assert stats.latency_summary([]) == {"n": 0}
    assert "tail_pct" not in stats.latency_summary([1.0, 2.0])


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)
    assert stats.quartile_spread([2.0, 2.0, 2.0]) == 0
