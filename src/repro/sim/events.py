"""A small discrete-event simulation core.

The IO engine and the fleet simulations use this to model concurrent
activities (outstanding IOs completing, hosts finishing warmup) against the
shared :class:`~repro.sim.clock.SimClock`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.clock import SimClock


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)`` so two events scheduled for the
    same instant fire in the order they were scheduled (FIFO), which keeps
    simulations deterministic.
    """

    time: float
    sequence: int
    callback: Callable[[], Any] = field(compare=False)
    payload: Any = field(default=None, compare=False)


class EventQueue:
    """A min-heap of :class:`Event` objects keyed by time."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, callback: Callable[[], Any], payload: Any = None) -> Event:
        """Add an event at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time: {time}")
        event = Event(time=time, sequence=next(self._counter), callback=callback, payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Return the time of the next event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> Optional[Event]:
        """Remove and return the next event, or ``None`` when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)


class Simulator:
    """Drives an :class:`EventQueue` against a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.queue = EventQueue()

    def schedule_at(self, time: float, callback: Callable[[], Any], payload: Any = None) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < {self.clock.now}"
            )
        return self.queue.schedule(time, callback, payload)

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events run."""
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            if not self.step():
                break
            executed += 1
        return executed
