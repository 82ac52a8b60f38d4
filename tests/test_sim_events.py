"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim import EventQueue, SimClock, Simulator


class TestEventQueue:
    def test_len_counts_live_events(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2

    def test_pop_returns_earliest(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda: "late")
        queue.schedule(1.0, lambda: "early")
        assert queue.pop().time == 1.0

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: "a")
        second = queue.schedule(1.0, lambda: "b")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)


class TestSimulator:
    def test_step_advances_clock_and_runs_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.5, lambda: fired.append(True))
        assert sim.step() is True
        assert sim.clock.now == pytest.approx(1.5)
        assert fired == [True]

    def test_step_on_empty_queue_returns_false(self):
        assert Simulator().step() is False

    def test_schedule_in_past_rejected(self):
        sim = Simulator(SimClock(5.0))
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        executed = sim.run(until=2.0)
        assert executed == 1
        assert fired == [1]
        assert sim.clock.now == pytest.approx(2.0)

    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (0.5, 1.0, 1.5):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        assert sim.run() == 3
        assert fired == [0.5, 1.0, 1.5]

    def test_run_respects_max_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert len(sim.queue) == 1

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.clock.now)
            if len(fired) < 3:
                sim.schedule_at(sim.clock.now + 1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
