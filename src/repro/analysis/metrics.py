"""The percentile every experiment reports with (p95/p99 latency).

:func:`percentile` is what the serving layer calls.  :class:`RunningStat`
and :class:`Histogram` have no caller in the package, the benchmarks or the
examples; run-time counters and time series live in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np


def percentile(samples: Iterable[float], pct: float) -> float:
    """Return the ``pct`` percentile (0-100) of ``samples``.

    Raises ``ValueError`` for an empty sample set -- silently returning 0 has
    hidden more than one broken experiment.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot compute a percentile of an empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return float(np.percentile(values, pct))


@dataclass
class RunningStat:
    """Streaming mean/variance/min/max without retaining samples."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Combine two running stats (used when merging per-host metrics)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self


class Histogram:
    """Sample-retaining histogram with percentile queries.

    Latency distributions in these experiments are small enough (tens of
    thousands of queries) that retaining the raw samples is simpler and more
    accurate than bucketing.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(float(v) for v in values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return float(np.mean(self._samples))

    def percentile(self, pct: float) -> float:
        return percentile(self._samples, pct)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        """A dict of the headline statistics, convenient for report tables."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": float(np.max(self._samples)),
        }
