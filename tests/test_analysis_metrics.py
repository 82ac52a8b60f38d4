"""Tests for metric primitives."""

import math

import pytest

from repro.analysis import Histogram, RunningStat, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p100_is_max(self):
        assert percentile([1, 9, 5], 100) == 9

    def test_p0_is_min(self):
        assert percentile([1, 9, 5], 0) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestRunningStat:
    def test_mean_and_count(self):
        stat = RunningStat()
        for value in (1.0, 2.0, 3.0):
            stat.add(value)
        assert stat.count == 3
        assert stat.mean == pytest.approx(2.0)

    def test_min_max(self):
        stat = RunningStat()
        for value in (5.0, -1.0, 3.0):
            stat.add(value)
        assert stat.minimum == -1.0
        assert stat.maximum == 5.0

    def test_variance_matches_sample_variance(self):
        stat = RunningStat()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for value in values:
            stat.add(value)
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stat.variance == pytest.approx(expected)
        assert stat.stddev == pytest.approx(math.sqrt(expected))

    def test_variance_of_single_sample_is_zero(self):
        stat = RunningStat()
        stat.add(3.0)
        assert stat.variance == 0.0

    def test_merge_equivalent_to_combined_stream(self):
        left, right, combined = RunningStat(), RunningStat(), RunningStat()
        for value in (1.0, 2.0, 3.0):
            left.add(value)
            combined.add(value)
        for value in (10.0, 20.0):
            right.add(value)
            combined.add(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)

    def test_merge_with_empty(self):
        left = RunningStat()
        left.add(1.0)
        left.merge(RunningStat())
        assert left.count == 1


class TestHistogram:
    def test_summary_fields(self):
        hist = Histogram("latency")
        hist.extend([1.0, 2.0, 3.0, 4.0])
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_percentile_accessors(self):
        hist = Histogram()
        hist.extend(range(1, 101))
        assert hist.p50 == pytest.approx(50.5)
        assert hist.p95 >= hist.p50
        assert hist.p99 >= hist.p95

    def test_empty_histogram_mean_rejected(self):
        with pytest.raises(ValueError):
            Histogram().mean

    def test_len(self):
        hist = Histogram()
        hist.add(1.0)
        assert len(hist) == 1
