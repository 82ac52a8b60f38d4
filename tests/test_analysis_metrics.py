"""Tests for metric primitives."""

import pytest

from repro.analysis import percentile


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
