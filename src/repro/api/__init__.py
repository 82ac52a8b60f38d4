"""Unified experiment API: declarative scenarios, a closed backend table, one facade.

The public surface of the reproduction.  A scenario is described once as a
:class:`ScenarioSpec`, served through a :class:`Session`, and reported as a
:class:`ScenarioResult`; its embedding backend is one of ``dram``, ``sdm``
and ``tiered``, the rows of :data:`repro.api.backends.BACKENDS`
(:func:`create_backend` builds one).  The same machinery backs the
``python -m repro`` command line.
"""

from repro.api.spec import (
    BackendChoice,
    ModelChoice,
    ScenarioSpec,
    ServingChoice,
    TelemetrySpec,
    TrafficSpec,
    WorkloadChoice,
    model_spec_by_name,
    spec_path_error,
)
from repro.api.backends import available_backends, create_backend
from repro.api.results import (
    PowerSummary,
    ScenarioResult,
    campaign_table,
    metric_path_error,
    metric_value,
)
from repro.api.session import Session

__all__ = [
    "ScenarioSpec",
    "ModelChoice",
    "BackendChoice",
    "WorkloadChoice",
    "TrafficSpec",
    "ServingChoice",
    "TelemetrySpec",
    "model_spec_by_name",
    "spec_path_error",
    "metric_path_error",
    "metric_value",
    "Session",
    "ScenarioResult",
    "PowerSummary",
    "campaign_table",
    "create_backend",
    "available_backends",
]
