"""Capacity planning rooflines (Equations 5-7) and SSD sizing (Table 10).

``QPS(HW) ∝ min(BW(HW)/BWq, Comp(HW)/Compq)`` -- a host serves queries at the
rate allowed by its most constrained resource; the total demand then
translates into a host count and, with the power model, fleet power.  For
SDM hosts the additional constraint is the SM tier's IOPS at acceptable
latency, which is where Nand Flash and Optane differentiate (section 5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serving.platform import HostPlatform
from repro.serving.power import PowerModel
from repro.storage.latency_model import LoadedLatencyModel
from repro.storage.spec import DeviceSpec


def qps_per_host(
    platform: HostPlatform,
    bytes_per_query: float,
    flops_per_query: float,
) -> float:
    """Equation 5: the QPS one host sustains, memory- or compute-bound."""
    if bytes_per_query <= 0:
        raise ValueError(f"bytes_per_query must be positive: {bytes_per_query}")
    if flops_per_query <= 0:
        raise ValueError(f"flops_per_query must be positive: {flops_per_query}")
    memory_bound = platform.fast_memory_bandwidth / bytes_per_query
    compute_bound = platform.compute_flops / flops_per_query
    return min(memory_bound, compute_bound)


def hosts_needed(total_qps: float, host_qps: float) -> int:
    """Equation 7: hosts required to serve the region-level throughput."""
    if total_qps <= 0:
        raise ValueError(f"total_qps must be positive: {total_qps}")
    if host_qps <= 0:
        raise ValueError(f"host_qps must be positive: {host_qps}")
    return math.ceil(total_qps / host_qps)


def sm_bound_qps(
    user_lookups_per_query: float,
    devices: Sequence[DeviceSpec],
    cache_hit_rate: float,
    latency_budget: float,
) -> float:
    """QPS ceiling imposed by the SM tier's IOPS at acceptable latency.

    Each query generates ``user_lookups_per_query * (1 - hit_rate)`` device
    IOs; each device contributes the largest IOPS whose expected loaded
    latency stays within ``latency_budget`` (Nand Flash must be considerably
    under-utilised, Optane barely at all -- section 5.2).
    """
    if user_lookups_per_query <= 0:
        raise ValueError(f"user_lookups_per_query must be positive: {user_lookups_per_query}")
    if not 0.0 <= cache_hit_rate < 1.0:
        raise ValueError(f"cache_hit_rate must be in [0, 1): {cache_hit_rate}")
    if not devices:
        raise ValueError("sm_bound_qps needs at least one device")
    usable_iops = sum(
        LoadedLatencyModel(spec).max_iops_within_latency(latency_budget) for spec in devices
    )
    ios_per_query = user_lookups_per_query * (1.0 - cache_hit_rate)
    return usable_iops / ios_per_query


def ssds_needed(required_iops: float, device: DeviceSpec, derate: float = 1.0) -> int:
    """Number of SSDs needed to sustain ``required_iops`` (Table 10 sizing).

    ``derate`` < 1 under-utilises each device (mandatory for Nand Flash to
    keep its latency acceptable).
    """
    if required_iops <= 0:
        raise ValueError(f"required_iops must be positive: {required_iops}")
    if not 0.0 < derate <= 1.0:
        raise ValueError(f"derate must be in (0, 1]: {derate}")
    per_device = device.max_read_iops * derate
    return math.ceil(required_iops / per_device)


@dataclass(frozen=True)
class DeploymentScenario:
    """One row of a deployment comparison (e.g. a row of Table 8 or 9)."""

    name: str
    platform: HostPlatform
    qps_per_host: float
    total_qps: float
    helper_platform: Optional[HostPlatform] = None
    helper_hosts_per_host: float = 0.0

    def __post_init__(self) -> None:
        if self.qps_per_host <= 0:
            raise ValueError(f"qps_per_host must be positive: {self.qps_per_host}")
        if self.total_qps <= 0:
            raise ValueError(f"total_qps must be positive: {self.total_qps}")
        if self.helper_hosts_per_host < 0:
            raise ValueError(
                f"helper_hosts_per_host must be non-negative: {self.helper_hosts_per_host}"
            )
        if self.helper_hosts_per_host > 0 and self.helper_platform is None:
            raise ValueError("helper_hosts_per_host set but no helper_platform given")


@dataclass(frozen=True)
class CapacityPlan:
    """The host counts and power a scenario needs."""

    scenario: DeploymentScenario
    num_hosts: int
    num_helper_hosts: int
    host_power: float
    helper_host_power: float

    @property
    def total_power(self) -> float:
        return self.num_hosts * self.host_power + self.num_helper_hosts * self.helper_host_power

    @property
    def total_hosts(self) -> int:
        return self.num_hosts + self.num_helper_hosts


def plan_deployment(
    scenario: DeploymentScenario, power_model: Optional[PowerModel] = None
) -> CapacityPlan:
    """Turn a scenario into host counts and total power (Eq. 7 + power model)."""
    power_model = power_model if power_model is not None else PowerModel()
    num_hosts = hosts_needed(scenario.total_qps, scenario.qps_per_host)
    num_helpers = math.ceil(num_hosts * scenario.helper_hosts_per_host)
    helper_power = (
        power_model.host_power(scenario.helper_platform)
        if scenario.helper_platform is not None
        else 0.0
    )
    return CapacityPlan(
        scenario=scenario,
        num_hosts=num_hosts,
        num_helper_hosts=num_helpers,
        host_power=power_model.host_power(scenario.platform),
        helper_host_power=helper_power,
    )
