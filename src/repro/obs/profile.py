"""The repository's single audited wall-clock module.

Everything under :mod:`repro` runs on simulated time — the DET001 lint rule
forbids wall-clock reads in library code because results must be a pure
function of the :class:`~repro.api.spec.ScenarioSpec`.  Two observability
features legitimately need the real clock anyway: wall-clock profiling of
the serve core (how long the *host* spends executing a simulated
query, as opposed to how long the simulated host takes) and progress/ETA
reporting for long campaigns.

Both go through this module, which is the one path DET001 allow-lists (see
``WALL_CLOCK_ALLOWED_SUFFIXES`` in :mod:`repro.lint.rules.determinism`).
The contract that keeps the allow-list safe: nothing returned from here may
flow into simulated time, serving results or anything hashed/stored — only
into :meth:`TraceRecorder.wall_span` profiling tracks and stderr progress
lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.obs.trace import TraceRecorder


def wall_seconds() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``), arbitrary origin."""
    return time.perf_counter()


@contextmanager
def wall_span(
    recorder: TraceRecorder, name: str, **args: Any
) -> Iterator[Dict[str, Any]]:
    """Record the wall-clock duration of a block as a profiling span.

    Only measures when ``recorder.wall_profiling`` is set, so the default
    no-op recorder pays nothing.  The yielded dict is the span's ``args``;
    callers may add fields (row counts, byte totals) before the block ends.
    """
    payload: Dict[str, Any] = dict(args)
    if not recorder.wall_profiling:
        yield payload
        return
    started = wall_seconds()
    try:
        yield payload
    finally:
        recorder.wall_span(name, started, wall_seconds() - started, args=payload)
