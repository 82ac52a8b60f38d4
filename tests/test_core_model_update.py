"""Tests for model-update planning (appendix A.3)."""

import pytest

from repro.core import ModelUpdatePlanner, UpdateStrategy
from repro.sim.units import GB, TB
from repro.storage import nand_flash_spec, optane_ssd_spec


def _planner(spec_factory=nand_flash_spec, capacity=2 * TB, embedding_bytes=100 * GB):
    return ModelUpdatePlanner(
        device_specs=[spec_factory(capacity), spec_factory(capacity)],
        embedding_bytes_on_sm=embedding_bytes,
        dense_bytes=1 * GB,
    )


class TestModelUpdatePlanner:
    def test_full_offline_duration_uses_aggregate_write_bw(self):
        planner = _planner()
        plan = planner.plan(UpdateStrategy.FULL_OFFLINE)
        expected = 100 * GB / planner.aggregate_write_bandwidth
        assert plan.duration_seconds == pytest.approx(expected)
        assert plan.host_serving_during_update is False

    def test_full_online_is_slower_but_keeps_serving(self):
        planner = _planner()
        offline = planner.plan(UpdateStrategy.FULL_OFFLINE)
        online = planner.plan(UpdateStrategy.FULL_ONLINE)
        assert online.duration_seconds > offline.duration_seconds
        assert online.host_serving_during_update is True

    def test_incremental_writes_fraction(self):
        planner = _planner()
        plan = planner.plan(UpdateStrategy.INCREMENTAL, incremental_fraction=0.2)
        assert plan.bytes_written == pytest.approx(20 * GB)

    def test_dense_only_touches_no_sm(self):
        plan = _planner().plan(UpdateStrategy.DENSE_ONLY)
        assert plan.bytes_written == 0.0
        assert plan.sustainable_interval_seconds == 0.0

    def test_endurance_limits_full_updates_on_nand(self):
        planner = _planner(nand_flash_spec, capacity=400 * GB, embedding_bytes=300 * GB)
        plan = planner.plan(UpdateStrategy.FULL_ONLINE)
        # Refreshing 300GB on 2x400GB Nand every few minutes is not sustainable.
        assert plan.sustainable_interval_seconds > 5 * 60

    def test_optane_sustains_much_more_frequent_updates(self):
        nand_plan = _planner(nand_flash_spec, 400 * GB).plan(UpdateStrategy.FULL_ONLINE)
        optane_plan = _planner(optane_ssd_spec, 400 * GB).plan(UpdateStrategy.FULL_ONLINE)
        assert (
            optane_plan.sustainable_interval_seconds
            < nand_plan.sustainable_interval_seconds
        )

    def test_incremental_more_sustainable_than_full(self):
        planner = _planner(nand_flash_spec, 400 * GB)
        full = planner.plan(UpdateStrategy.FULL_ONLINE)
        incremental = planner.plan(UpdateStrategy.INCREMENTAL, incremental_fraction=0.05)
        assert (
            incremental.sustainable_interval_seconds < full.sustainable_interval_seconds
        )

    def test_strategy_accepts_string(self):
        plan = _planner().plan("incremental")
        assert plan.strategy is UpdateStrategy.INCREMENTAL

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ModelUpdatePlanner([], 1, 1)
        with pytest.raises(ValueError):
            ModelUpdatePlanner([nand_flash_spec()], 0, 1)
        with pytest.raises(ValueError):
            ModelUpdatePlanner([nand_flash_spec()], 1, -1)
        with pytest.raises(ValueError):
            _planner().plan(UpdateStrategy.INCREMENTAL, incremental_fraction=0.0)
