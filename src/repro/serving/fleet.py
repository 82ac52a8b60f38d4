"""Fleet-level rolling-update simulation.

Combines the deployment plan (Eq. 5-7), the model-update planner (appendix
A.3) and the warmup model (appendix A.4) into a single simulation of a fleet
serving one model while its hosts are refreshed in rolling batches: at any
moment some hosts are offline writing the new embedding tables to SM and some
are back online but serving at reduced throughput until their caches warm.
The result is the effective fleet capacity over time and the extra hosts that
must be provisioned to keep serving the target QPS throughout an update wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.model_update import ModelUpdatePlanner, UpdateStrategy
from repro.core.warmup import warmup_capacity_overhead
from repro.serving.capacity_planner import CapacityPlan


@dataclass(frozen=True)
class RollingUpdateConfig:
    """Parameters of one rolling update wave across a fleet.

    Attributes
    ----------
    batch_fraction:
        Fraction of hosts taken through the update at a time (the paper's
        ``r``).
    warmup_seconds:
        Time a freshly updated host needs to re-warm its SM cache.
    warmup_performance:
        Relative throughput of a host while its cache warms (the paper's
        ``p``).
    update_interval_seconds:
        Time between consecutive model refreshes (the paper's ``t``).
    strategy:
        How the refresh is applied to SM (offline, online or incremental).
    """

    batch_fraction: float = 0.10
    warmup_seconds: float = 300.0
    warmup_performance: float = 0.5
    update_interval_seconds: float = 1800.0
    strategy: UpdateStrategy = UpdateStrategy.FULL_OFFLINE

    def __post_init__(self) -> None:
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError(f"batch_fraction must be in (0, 1]: {self.batch_fraction}")
        if self.warmup_seconds <= 0:
            raise ValueError(f"warmup_seconds must be positive: {self.warmup_seconds}")
        if not 0.0 < self.warmup_performance <= 1.0:
            raise ValueError(
                f"warmup_performance must be in (0, 1]: {self.warmup_performance}"
            )
        if self.update_interval_seconds <= 0:
            raise ValueError(
                f"update_interval_seconds must be positive: {self.update_interval_seconds}"
            )


@dataclass(frozen=True)
class FleetCapacityPoint:
    """Effective fleet capacity at one moment of the update wave."""

    time_seconds: float
    hosts_offline: int
    hosts_warming: int
    effective_qps: float


@dataclass(frozen=True)
class RollingUpdateReport:
    """Outcome of simulating one full rolling-update wave."""

    plan: CapacityPlan
    config: RollingUpdateConfig
    update_duration_seconds: float
    wave_duration_seconds: float
    timeline: List[FleetCapacityPoint]
    minimum_effective_qps: float
    capacity_overhead: float

    @property
    def worst_case_capacity_fraction(self) -> float:
        """Lowest effective capacity relative to the fully-online fleet."""
        return self.minimum_effective_qps / (
            self.plan.num_hosts * self.plan.scenario.qps_per_host
        )

    def extra_hosts_needed(self, target_qps: float) -> int:
        """Hosts to add so the fleet still serves ``target_qps`` at the worst point."""
        if target_qps <= 0:
            raise ValueError(f"target_qps must be positive: {target_qps}")
        shortfall = target_qps - self.minimum_effective_qps
        if shortfall <= 0:
            return 0
        return math.ceil(shortfall / self.plan.scenario.qps_per_host)


def simulate_rolling_update(
    plan: CapacityPlan,
    update_planner: ModelUpdatePlanner,
    config: RollingUpdateConfig,
    time_step_seconds: float = 30.0,
) -> RollingUpdateReport:
    """Simulate one rolling-update wave over a deployed fleet.

    Hosts are updated in batches of ``batch_fraction * num_hosts``.  A host in
    the offline phase contributes no capacity (unless the update strategy
    serves during the update), and a host in the warmup phase contributes
    ``warmup_performance`` of its capacity.
    """
    if time_step_seconds <= 0:
        raise ValueError(f"time_step_seconds must be positive: {time_step_seconds}")

    update_plan = update_planner.plan(config.strategy)
    per_host_update_seconds = update_plan.duration_seconds
    host_qps = plan.scenario.qps_per_host
    num_hosts = plan.num_hosts
    batch_size = max(int(round(num_hosts * config.batch_fraction)), 1)
    num_batches = math.ceil(num_hosts / batch_size)

    offline_counts_towards_capacity = update_plan.host_serving_during_update
    wave_duration = num_batches * per_host_update_seconds + config.warmup_seconds

    timeline: List[FleetCapacityPoint] = []
    minimum_qps = float("inf")
    steps = max(int(math.ceil(wave_duration / time_step_seconds)), 1) + 1
    for step in range(steps):
        now = min(step * time_step_seconds, wave_duration)
        offline = 0
        warming = 0
        for batch in range(num_batches):
            batch_hosts = min(batch_size, num_hosts - batch * batch_size)
            update_start = batch * per_host_update_seconds
            update_end = update_start + per_host_update_seconds
            warmup_end = update_end + config.warmup_seconds
            if update_start <= now < update_end:
                offline += batch_hosts
            elif update_end <= now < warmup_end:
                warming += batch_hosts
        online = num_hosts - offline - warming
        effective = online * host_qps + warming * host_qps * config.warmup_performance
        if offline_counts_towards_capacity:
            effective += offline * host_qps * config.warmup_performance
        minimum_qps = min(minimum_qps, effective)
        timeline.append(
            FleetCapacityPoint(
                time_seconds=now,
                hosts_offline=offline,
                hosts_warming=warming,
                effective_qps=effective,
            )
        )

    overhead = warmup_capacity_overhead(
        updating_fraction=config.batch_fraction,
        warmup_minutes=config.warmup_seconds / 60.0,
        warmup_performance=config.warmup_performance,
        update_interval_minutes=config.update_interval_seconds / 60.0,
    )
    return RollingUpdateReport(
        plan=plan,
        config=config,
        update_duration_seconds=per_host_update_seconds,
        wave_duration_seconds=wave_duration,
        timeline=timeline,
        minimum_effective_qps=minimum_qps,
        capacity_overhead=overhead,
    )
