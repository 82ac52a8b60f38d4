"""Simulated clock.

The clock only moves forward.  Components that model service times (devices,
compute cost models) advance the clock or schedule events against it; nothing
in the library reads the wall clock when producing results.
"""

from __future__ import annotations

import numpy as np


def charge_repeatedly(total: float, cost: float, count: int) -> float:
    """``total += cost``, ``count`` times over, as one ``np.add.accumulate``:
    the same left-to-right chain of additions, so the same float."""
    chain = np.empty(count + 1, dtype=np.float64)
    chain.fill(cost)
    chain[0] = total
    return float(np.add.accumulate(chain)[-1])


class SimClock:
    """A monotonically increasing simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` if it is in the future.

        Advancing to a time in the past is a no-op (the clock never goes
        backwards); this makes it safe for several overlapping operations to
        each report their completion time.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.9f})"
