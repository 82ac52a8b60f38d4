"""Tests for warmup modelling (appendix A.4)."""

import pytest

from repro.core import warmup_capacity_overhead


class TestWarmupCapacityOverhead:
    def test_paper_example_parameters(self):
        """The appendix-A.4 example (r=10%, w=5 min, p=50%, t=30 min).

        The paper's prose quotes 1.2% but its own formula (r*w)/(p*t) with
        those numbers evaluates to 1/30 ~= 3.3%; the formula is implemented
        as written (see ``warmup_capacity_overhead``'s docstring).
        """
        overhead = warmup_capacity_overhead(
            updating_fraction=0.10,
            warmup_minutes=5,
            warmup_performance=0.50,
            update_interval_minutes=30,
        )
        assert overhead == pytest.approx((0.10 * 5) / (0.50 * 30), rel=1e-9)
        assert 0.01 < overhead < 0.05

    def test_longer_warmup_needs_more_capacity(self):
        short = warmup_capacity_overhead(0.1, 2, 0.5, 30)
        long = warmup_capacity_overhead(0.1, 10, 0.5, 30)
        assert long > short

    def test_better_warmup_performance_needs_less_capacity(self):
        slow = warmup_capacity_overhead(0.1, 5, 0.25, 30)
        fast = warmup_capacity_overhead(0.1, 5, 0.9, 30)
        assert fast < slow

    def test_more_frequent_updates_need_more_capacity(self):
        frequent = warmup_capacity_overhead(0.1, 5, 0.5, 10)
        rare = warmup_capacity_overhead(0.1, 5, 0.5, 60)
        assert frequent > rare

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            warmup_capacity_overhead(0.0, 5, 0.5, 30)
        with pytest.raises(ValueError):
            warmup_capacity_overhead(0.1, 0, 0.5, 30)
        with pytest.raises(ValueError):
            warmup_capacity_overhead(0.1, 5, 0.0, 30)
        with pytest.raises(ValueError):
            warmup_capacity_overhead(0.1, 5, 0.5, 0)
        with pytest.raises(ValueError):
            warmup_capacity_overhead(0.1, 40, 0.5, 30)

