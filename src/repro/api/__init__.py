"""Unified experiment API: declarative scenarios, pluggable backends, one facade.

The public surface of the reproduction.  A scenario is described once as a
:class:`ScenarioSpec`, served through a :class:`Session`, and reported as a
:class:`ScenarioResult`; embedding backends plug in through the registry
(:func:`register_backend` / :func:`create_backend`), with ``dram``, ``sdm``
and ``pooled`` built in.  The same machinery backs the ``python -m repro``
command line.
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
from repro.api.registry import (
    BackendFactory,
    BackendRegistryError,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    backend_registered,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.api.results import (
    PowerSummary,
    ScenarioResult,
    campaign_table,
    metric_path_error,
    metric_value,
)
from repro.api.session import Session
from repro.api.backends import sdm_config_from_options  # registers built-ins on import

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
    "BackendFactory",
    "BackendRegistryError",
    "DuplicateBackendError",
    "UnknownBackendError",
    "register_backend",
    "unregister_backend",
    "backend_registered",
    "create_backend",
    "available_backends",
    "sdm_config_from_options",
]
