"""The repository's single audited wall-clock module.

Everything under :mod:`repro` runs on simulated time — the DET001 rule of
``tools/static_checks.py`` forbids wall-clock reads in library code because
results must be a pure function of the :class:`~repro.api.spec.ScenarioSpec`.
One feature legitimately needs the real clock anyway: progress/ETA reporting
for long campaigns.

It goes through this module, which is the one path DET001 allows (see
``WALL_CLOCK_ALLOWED`` in ``tools/static_checks.py``).  The contract that keeps the allow-list safe: nothing returned from here may
flow into simulated time, serving results or anything hashed/stored — only
into stderr progress lines.

How long the *host* spends executing a simulated query (as opposed to how
long the simulated host takes) is measured from outside the library:
``perf/trace.py`` installs a span wrapper around each function named in
``perf/layers.py``, so ``src/`` carries no wall-clock call sites.
"""

from __future__ import annotations

import time


def wall_seconds() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``), arbitrary origin."""
    return time.perf_counter()
