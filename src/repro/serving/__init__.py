"""Hyper-scale deployment modelling: platforms, power, capacity planning.

Implements the warehouse-scale accounting of sections 2.3 and 5: hardware
platform configurations (Table 7), the QPS/latency/resource rooflines of
Equations 5-7, the normalised power model behind Tables 8, 9 and 11 (the
scale-out alternative of Table 9 is a deployment with helper hosts), the
multi-tenancy study, and a host-level serving simulator that runs a scaled
model end to end through an SDM backend.
"""

from repro.serving.platform import (
    AcceleratorSpec,
    HostPlatform,
    HW_AN,
    HW_AO,
    HW_FA,
    HW_FAO,
    HW_L,
    HW_S,
    HW_SS,
)
from repro.serving.power import PowerModel, power_saving
from repro.serving.latency import LatencyTarget, latency_percentiles
from repro.serving.capacity_planner import (
    CapacityPlan,
    DeploymentScenario,
    hosts_needed,
    plan_deployment,
    qps_per_host,
    sm_bound_qps,
    ssds_needed,
)
from repro.serving.multitenancy import MultiTenancyScenario, evaluate_multi_tenancy
from repro.serving.engine import (
    HostSimulationResult,
    OpenLoopResult,
    QueryRecord,
    ServingEngine,
)

__all__ = [
    "HostPlatform",
    "AcceleratorSpec",
    "HW_L",
    "HW_S",
    "HW_SS",
    "HW_AN",
    "HW_AO",
    "HW_FA",
    "HW_FAO",
    "PowerModel",
    "power_saving",
    "LatencyTarget",
    "latency_percentiles",
    "CapacityPlan",
    "DeploymentScenario",
    "qps_per_host",
    "hosts_needed",
    "plan_deployment",
    "sm_bound_qps",
    "ssds_needed",
    "MultiTenancyScenario",
    "evaluate_multi_tenancy",
    "ServingEngine",
    "HostSimulationResult",
    "OpenLoopResult",
    "QueryRecord",
]
