"""Tests for the simulated clock."""

import pytest

from repro.sim import SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_starts_at_custom_time(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_advance_returns_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(0.5) == pytest.approx(1.5)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0

    def test_repr_contains_time(self):
        assert "0.5" in repr(SimClock(0.5))
