"""Interval time-series sampling of cumulative serving counters.

A :class:`MetricsSampler` turns the stack's cumulative statistics
(:class:`~repro.hierarchy.tier.TierStats`,
:class:`~repro.cache.base.CacheStats`,
:class:`~repro.storage.io_engine.IOEngineStats`, engine admission counts)
into a :class:`Timeline` of fixed-width windows on the *simulated* clock,
each holding the **delta** of every counter over that window plus gauge
samples (queue depth, busy streams) at the window boundary.  Deltas of
cumulative counters telescope, so the windows of a run sum exactly to its
aggregate statistics — the property the acceptance tests pin down.

The sampler is deliberately *not* an event on the
:class:`~repro.sim.events.Simulator`: periodic sampler events would extend
``sim.clock.now`` past the last completion and change the measured makespan.
Instead the serving engine calls :meth:`advance` with the current simulated
time at the top of each event handler (before the handler mutates any
statistic) and :meth:`finish` once with the makespan — the event queue, and
therefore every simulated result, is untouched.  Window ``k`` covers
``[k*interval, (k+1)*interval)``; an event exactly on a boundary belongs to
the *next* window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: A counter source: returns a flat mapping of cumulative numeric counters.
CounterSource = Callable[[], Mapping[str, float]]
#: A gauge source: returns one instantaneous value.
GaugeSource = Callable[[], float]


@dataclass(frozen=True)
class TimelineWindow:
    """One sampling window: counter deltas over it, gauges at its end."""

    index: int
    start: float
    end: float
    counters: Dict[str, float]
    gauges: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }


@dataclass
class Timeline:
    """The full window series of one run, JSON-serialisable via ``to_dict``."""

    interval: float
    windows: List[TimelineWindow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def totals(self) -> Dict[str, float]:
        """Sum of every counter across all windows (== final − initial)."""
        totals: Dict[str, float] = {}
        for window in self.windows:
            for key, value in window.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval_seconds": self.interval,
            "num_windows": len(self.windows),
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timeline":
        return cls(
            interval=data["interval_seconds"],
            windows=[
                TimelineWindow(
                    index=raw["index"],
                    start=raw["start"],
                    end=raw["end"],
                    counters=dict(raw["counters"]),
                    gauges=dict(raw["gauges"]),
                )
                for raw in data["windows"]
            ],
        )


class MetricsSampler:
    """Snapshots cumulative counters every ``interval`` simulated seconds.

    Counter sources are registered under a prefix (``"backend"``,
    ``"engine"``); their keys flatten to ``prefix.key``.  The engine drives
    the sampler: :meth:`start` right before serving begins (baselines every
    counter, so warmup activity never leaks into window 0), :meth:`advance`
    with the current simulated time before each event handler runs, and
    :meth:`finish` with the makespan — which closes the final partial
    window.  ``advance`` keeps an internal high-water mark, so closed-loop
    serving may report per-stream clocks out of order.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive: {interval}")
        self.interval = interval
        self._counters: List[Tuple[str, CounterSource]] = []
        self._gauges: List[Tuple[str, GaugeSource]] = []
        self._prev: Dict[str, float] = {}
        self._window = 0
        self._now = 0.0
        self._started = False
        self._finished = False
        self.timeline = Timeline(interval=interval)

    # ------------------------------------------------------------- sources
    def add_counters(self, prefix: str, source: CounterSource) -> None:
        """Register a cumulative-counter source; keys become ``prefix.key``."""
        if self._started:
            raise RuntimeError("cannot add sources after start()")
        self._counters.append((prefix, source))

    def add_gauge(self, name: str, source: GaugeSource) -> None:
        """Register an instantaneous gauge sampled at each window close."""
        if self._started:
            raise RuntimeError("cannot add sources after start()")
        self._gauges.append((name, source))

    def _collect(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        for prefix, source in self._counters:
            for key, value in source().items():
                flat[f"{prefix}.{key}" if prefix else key] = value
        return flat

    # ------------------------------------------------------------- driving
    def start(self, now: float = 0.0) -> None:
        """Baseline every counter; window 0 starts at ``now``'s window."""
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._now = now
        self._window = int(now // self.interval)
        self._prev = self._collect()

    def advance(self, now: float) -> None:
        """Close every window that ends at or before ``now``."""
        if not self._started or self._finished:
            raise RuntimeError("advance() needs start() first (and no finish())")
        if now > self._now:
            self._now = now
        while self._now >= (self._window + 1) * self.interval:
            self._close((self._window + 1) * self.interval)

    def finish(self, now: float) -> Timeline:
        """Close the trailing partial window at ``now`` and seal the timeline."""
        if self._finished:
            return self.timeline
        self.advance(now)
        self._finished = True
        start = self._window * self.interval
        if self._now > start:
            self._close(self._now)
        return self.timeline

    def _close(self, end: float) -> None:
        current = self._collect()
        deltas = {
            key: current[key] - self._prev.get(key, 0) for key in sorted(current)
        }
        gauges = {name: source() for name, source in self._gauges}
        self.timeline.windows.append(
            TimelineWindow(
                index=self._window,
                start=self._window * self.interval,
                end=end,
                counters=deltas,
                gauges=gauges,
            )
        )
        self._prev = current
        self._window += 1


def stats_counters(stats: Any) -> Dict[str, float]:
    """Every field of a stats dataclass, in declaration order, as a flat dict.

    Each field is a cumulative counter; ratios and properties (hit rates,
    amplification) are recomputed per window from the deltas, since a
    sampled ratio would not telescope.
    """
    return {item.name: getattr(stats, item.name) for item in fields(stats)}


def window_rate(window: TimelineWindow, counter: str) -> float:
    """One window's counter delta as a per-second rate."""
    width = window.end - window.start
    if width <= 0:
        return 0.0
    return window.counters.get(counter, 0) / width


def window_ratio(window: TimelineWindow, numerator: str, denominator: str) -> Optional[float]:
    """A within-window ratio (e.g. hit rate), ``None`` when the base is zero."""
    base = window.counters.get(denominator, 0)
    if not base:
        return None
    return window.counters.get(numerator, 0) / base
