"""repro.obs — observability: sim-time tracing, time-series metrics, reports.

Three pieces, all driven by the serving stack:

* :mod:`repro.obs.trace` — per-query span tracing on the simulated clock
  behind the pluggable :class:`TraceRecorder` (no-op :data:`NULL_RECORDER`
  default, Chrome-trace-event :class:`ChromeTraceRecorder` exporter that
  https://ui.perfetto.dev loads directly).
* :mod:`repro.obs.metrics` — :class:`MetricsSampler` snapshots cumulative
  tier/cache/IO/admission counters every N simulated seconds and emits a
  :class:`Timeline` of window deltas (hit-rate / QPS / queue-depth curves
  over time instead of one end-of-run aggregate).
* :mod:`repro.obs.report` — renders stored results + timelines as text or
  JSON (the ``python -m repro report`` subcommand), and formats the
  plain-text tables (:func:`format_table`, :func:`format_series`) every
  report, CLI listing and benchmark prints.

:mod:`repro.obs.profile` is the repository's single audited wall-clock
module (``WALL_CLOCK_ALLOWED`` in ``tools/static_checks.py`` exempts exactly
that file from DET001); campaign ETA lines go through it and nowhere else.
Host-time (wall-clock) spans are not recorded from inside the library:
``perf/trace.py`` wraps the functions named in ``perf/layers.py`` from
outside, and that hook table is the one wall tracer.

Everything is wired through ``ScenarioSpec``'s ``telemetry`` section; with
telemetry disabled (the default) the serving stack's behaviour is
bit-identical to a build without this package, which the parity tests pin.
"""

from repro.obs.metrics import (
    MetricsSampler,
    Timeline,
    TimelineWindow,
    stats_counters,
    window_rate,
    window_ratio,
)
from repro.obs.profile import wall_seconds
from repro.obs.report import render_report, report_dict, timeline_table_data
from repro.obs.trace import (
    NULL_RECORDER,
    ChromeTraceRecorder,
    TraceRecorder,
    validate_chrome_trace,
)

__all__ = [
    "ChromeTraceRecorder",
    "MetricsSampler",
    "NULL_RECORDER",
    "Timeline",
    "TimelineWindow",
    "TraceRecorder",
    "render_report",
    "report_dict",
    "stats_counters",
    "timeline_table_data",
    "validate_chrome_trace",
    "wall_seconds",
    "window_rate",
    "window_ratio",
]
