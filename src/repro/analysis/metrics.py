"""The percentile every experiment reports with (p95/p99 latency).

:func:`percentile` is what the serving layer calls; run-time counters and
time series live in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from typing import Iterable

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
