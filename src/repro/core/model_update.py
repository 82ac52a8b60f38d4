"""Model update planning (appendix A.3).

Models are refreshed frequently; embedding tables on SM make updates slower
(write bandwidth, endurance) and interact with the row cache (dirty
write-back lets a host keep serving during the update).  The planner computes
update duration, checks endurance sustainability and compares full vs
incremental update strategies, including the dense-only fast path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.storage.endurance import EnduranceModel
from repro.storage.spec import DeviceSpec


class UpdateStrategy(str, enum.Enum):
    """How a model refresh is applied to the SM tier."""

    FULL_OFFLINE = "full_offline"
    FULL_ONLINE = "full_online"
    INCREMENTAL = "incremental"
    DENSE_ONLY = "dense_only"


@dataclass(frozen=True)
class UpdatePlan:
    """Result of planning one model refresh."""

    strategy: UpdateStrategy
    bytes_written: float
    duration_seconds: float
    sustainable_interval_seconds: float
    host_serving_during_update: bool


class ModelUpdatePlanner:
    """Plans model refreshes for a set of SM devices."""

    def __init__(
        self,
        device_specs: Sequence[DeviceSpec],
        embedding_bytes_on_sm: float,
        dense_bytes: float,
        online_write_slowdown: float = 2.0,
    ) -> None:
        if not device_specs:
            raise ValueError("planner needs at least one device spec")
        if embedding_bytes_on_sm <= 0:
            raise ValueError(
                f"embedding_bytes_on_sm must be positive: {embedding_bytes_on_sm}"
            )
        if dense_bytes < 0:
            raise ValueError(f"dense_bytes must be non-negative: {dense_bytes}")
        if online_write_slowdown < 1.0:
            raise ValueError(
                f"online_write_slowdown must be >= 1.0: {online_write_slowdown}"
            )
        self.device_specs = list(device_specs)
        self.embedding_bytes_on_sm = embedding_bytes_on_sm
        self.dense_bytes = dense_bytes
        self.online_write_slowdown = online_write_slowdown

    @property
    def aggregate_write_bandwidth(self) -> float:
        return sum(spec.write_bandwidth for spec in self.device_specs)

    @property
    def aggregate_capacity_bytes(self) -> float:
        return float(sum(spec.capacity_bytes for spec in self.device_specs))

    def _sustainable_interval(self, bytes_written: float) -> float:
        """Shortest refresh interval the devices' endurance tolerates."""
        if bytes_written == 0:
            return 0.0
        intervals = []
        for spec in self.device_specs:
            share = spec.capacity_bytes / self.aggregate_capacity_bytes
            endurance = EnduranceModel(spec)
            intervals.append(endurance.min_update_interval_seconds(bytes_written * share))
        return max(intervals)

    def plan(
        self,
        strategy: UpdateStrategy,
        incremental_fraction: float = 0.1,
    ) -> UpdatePlan:
        """Plan a refresh with the given strategy.

        ``incremental_fraction`` is the share of embedding bytes rewritten by
        an incremental update.
        """
        strategy = UpdateStrategy(strategy)
        if not 0.0 < incremental_fraction <= 1.0:
            raise ValueError(
                f"incremental_fraction must be in (0, 1]: {incremental_fraction}"
            )

        if strategy is UpdateStrategy.DENSE_ONLY:
            # Dense parameters live in FM; no SM writes at all.
            return UpdatePlan(
                strategy=strategy,
                bytes_written=0.0,
                duration_seconds=self.dense_bytes / 10.0e9 if self.dense_bytes else 0.0,
                sustainable_interval_seconds=0.0,
                host_serving_during_update=True,
            )

        if strategy is UpdateStrategy.INCREMENTAL:
            bytes_written = self.embedding_bytes_on_sm * incremental_fraction
            serving = True
            slowdown = self.online_write_slowdown
        elif strategy is UpdateStrategy.FULL_ONLINE:
            bytes_written = self.embedding_bytes_on_sm
            serving = True
            slowdown = self.online_write_slowdown
        else:  # FULL_OFFLINE
            bytes_written = self.embedding_bytes_on_sm
            serving = False
            slowdown = 1.0

        duration = bytes_written * slowdown / self.aggregate_write_bandwidth
        return UpdatePlan(
            strategy=strategy,
            bytes_written=bytes_written,
            duration_seconds=duration,
            sustainable_interval_seconds=self._sustainable_interval(bytes_written),
            host_serving_during_update=serving,
        )
