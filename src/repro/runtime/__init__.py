"""Campaign orchestration: grids of scenarios, run in parallel, stored on disk.

The runtime layer sits above :mod:`repro.api` and treats whole experiments as
schedulable, cacheable units (the SimBricks-style split of orchestration from
simulation):

* :class:`CampaignSpec` (:mod:`repro.runtime.campaign`) — a base
  :class:`~repro.api.spec.ScenarioSpec` crossed with a grid of dotted-path
  parameter axes, expanded into deterministic, individually-specified points.
* :func:`run_campaign` (:mod:`repro.runtime.executor`) — executes the points
  through a pluggable :class:`Runtime`, streaming progress and memoising
  through the store.
* :mod:`repro.runtime.runtimes` — the execution engines: serial, a
  work-stealing local process pool with per-point retry/quarantine and
  worker-resident backend reuse, and a dry-run planner.
* :class:`ExperimentStore` (:mod:`repro.runtime.store`) — append-only JSONL
  results keyed by canonical spec hash, optionally sharded per worker;
  interrupted campaigns resume, repeated campaigns are near-free.
* :func:`compare_runs` (:mod:`repro.runtime.compare`) — per-metric regression
  diff of two stored runs.

The same machinery backs ``python -m repro campaign`` / ``compare``.
"""

from repro.runtime.campaign import (
    REPLICATE_AXIS,
    CampaignAxis,
    CampaignPoint,
    CampaignSpec,
    coord_label,
    point_name,
)
from repro.runtime.compare import (
    DEFAULT_METRICS,
    MetricDelta,
    MetricSpec,
    RunComparison,
    compare_runs,
)
from repro.runtime.executor import PointOutcome, run_campaign
from repro.runtime.runtimes import (
    RUNTIME_NAMES,
    DryRunRuntime,
    LocalPoolRuntime,
    PointCompletion,
    Runtime,
    RuntimeConfig,
    SerialRuntime,
    estimated_cost,
    resolve_runtime,
)
from repro.runtime.store import ExperimentStore

__all__ = [
    "CampaignAxis",
    "CampaignPoint",
    "CampaignSpec",
    "REPLICATE_AXIS",
    "coord_label",
    "point_name",
    "PointOutcome",
    "run_campaign",
    "Runtime",
    "RuntimeConfig",
    "RUNTIME_NAMES",
    "SerialRuntime",
    "LocalPoolRuntime",
    "DryRunRuntime",
    "PointCompletion",
    "estimated_cost",
    "resolve_runtime",
    "ExperimentStore",
    "MetricSpec",
    "MetricDelta",
    "RunComparison",
    "DEFAULT_METRICS",
    "compare_runs",
]
