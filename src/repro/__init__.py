"""repro -- Software Defined Memory for massive DLRM inference.

A faithful, laptop-scale reproduction of "Supporting Massive DLRM Inference
through Software Defined Memory" (ICDCS 2022).  The package is organised as:

* :mod:`repro.api` -- the public front door: declarative scenario specs, the
  :class:`Session` facade, the closed table of embedding backends and the
  ``python -m repro`` command line.
* :mod:`repro.sim` -- simulated clock, discrete events, units, RNG.
* :mod:`repro.storage` -- slow-memory device models (Table 1), io_uring-like
  engine, sub-block (SGL) reads, block layout, endurance.
* :mod:`repro.cache` -- the CacheLib-like unified row cache (memory- vs
  CPU-optimised organisations).
* :mod:`repro.dlrm` -- the DLRM substrate: quantised embedding tables,
  pruning, MLPs, model configs (Table 6) and the inference engine.
* :mod:`repro.hierarchy` -- the N-tier memory hierarchy: pluggable
  :class:`TierSpec`/:class:`MemoryTier` tiers, tiered placement (table- or
  row-range granularity) and the tier chain serving path.
* :mod:`repro.core` -- the SDM stack itself: Tuning API config, bandwidth
  analysis, pooled embedding cache, de-pruning/de-quantisation, warmup,
  model update and the :class:`~repro.core.sdm.SoftwareDefinedMemory` backend.
* :mod:`repro.workload` -- synthetic query/trace generation and locality
  analysis (Figures 4 and 5).
* :mod:`repro.serving` -- platforms (Table 7), power/capacity planning
  (Eq. 5-7), scale-out, multi-tenancy, host-level serving simulation.
* :mod:`repro.analysis` -- percentiles.
* :mod:`repro.obs` -- observability: sim-time span tracing (Chrome trace
  export), interval time-series metrics, run reports and table formatting.

Quickstart::

    from repro import ScenarioSpec, Session

    result = Session(ScenarioSpec()).run()   # M1 on the SDM backend
    print(result.summary_table())

or from the command line::

    python -m repro run --set model.spec=M1 --set backend.name=sdm

The hand-wired layers remain importable for fine-grained control; the most
common entry points are re-exported here.
"""

from repro.api import (
    BackendChoice,
    ModelChoice,
    PowerSummary,
    ScenarioResult,
    ScenarioSpec,
    ServingChoice,
    Session,
    TelemetrySpec,
    TrafficSpec,
    WorkloadChoice,
    available_backends,
    create_backend,
)
from repro.api.results import campaign_table
from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.obs.report import format_series, format_table
from repro.runtime import (
    CampaignAxis,
    CampaignSpec,
    ExperimentStore,
    PointOutcome,
    RunComparison,
    compare_runs,
    run_campaign,
)
from repro.dlrm import (
    M1_SPEC,
    M2_SPEC,
    M3_SPEC,
    ComputeSpec,
    EmbeddingBackend,
    InferenceEngine,
    InMemoryBackend,
    Query,
    QueryResult,
    build_scaled_model,
)
from repro.hierarchy import (
    TierChain,
    TieredPlacement,
    TierSpec,
    compute_tiered_placement,
    parse_tiers,
)
from repro.serving import LatencyTarget, PowerModel, ServingEngine
from repro.workload import QueryGenerator, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # repro.api -- the public facade
    "ScenarioSpec",
    "ModelChoice",
    "BackendChoice",
    "WorkloadChoice",
    "TrafficSpec",
    "ServingChoice",
    "TelemetrySpec",
    "Session",
    "ScenarioResult",
    "PowerSummary",
    "campaign_table",
    # repro.runtime -- campaign orchestration
    "CampaignAxis",
    "CampaignSpec",
    "PointOutcome",
    "ExperimentStore",
    "RunComparison",
    "run_campaign",
    "compare_runs",
    "create_backend",
    "available_backends",
    # repro.hierarchy -- the N-tier memory hierarchy
    "TierSpec",
    "TierChain",
    "TieredPlacement",
    "compute_tiered_placement",
    "parse_tiers",
    # hand-wired layer highlights
    "SDMConfig",
    "SoftwareDefinedMemory",
    "ComputeSpec",
    "EmbeddingBackend",
    "InMemoryBackend",
    "InferenceEngine",
    "Query",
    "QueryResult",
    "M1_SPEC",
    "M2_SPEC",
    "M3_SPEC",
    "build_scaled_model",
    "QueryGenerator",
    "WorkloadConfig",
    "ServingEngine",
    "LatencyTarget",
    "PowerModel",
    "format_table",
    "format_series",
]
