"""Tests for the fleet-level rolling-update simulation."""

import pytest

from repro.core import ModelUpdatePlanner, UpdateStrategy
from repro.serving import DeploymentScenario, HW_SS, plan_deployment
from repro.serving.fleet import (
    RollingUpdateConfig,
    simulate_rolling_update,
)
from repro.sim.units import GB, TB
from repro.storage import nand_flash_spec


def _plan(num_hosts_qps=120.0, total_qps=120.0 * 100):
    return plan_deployment(
        DeploymentScenario("HW-SS + SDM", HW_SS, qps_per_host=num_hosts_qps, total_qps=total_qps)
    )


def _planner():
    return ModelUpdatePlanner(
        device_specs=[nand_flash_spec(2 * TB)] * 2,
        embedding_bytes_on_sm=100 * GB,
        dense_bytes=1 * GB,
    )


def _report(strategy=UpdateStrategy.FULL_OFFLINE, **config_overrides):
    config = RollingUpdateConfig(strategy=strategy, **config_overrides)
    return simulate_rolling_update(_plan(), _planner(), config)


class TestRollingUpdateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RollingUpdateConfig(batch_fraction=0.0)
        with pytest.raises(ValueError):
            RollingUpdateConfig(warmup_seconds=0)
        with pytest.raises(ValueError):
            RollingUpdateConfig(warmup_performance=0.0)
        with pytest.raises(ValueError):
            RollingUpdateConfig(update_interval_seconds=0)


class TestSimulateRollingUpdate:
    def test_capacity_dips_during_wave(self):
        report = _report()
        full_capacity = report.plan.num_hosts * report.plan.scenario.qps_per_host
        assert report.minimum_effective_qps < full_capacity
        assert report.worst_case_capacity_fraction < 1.0

    def test_timeline_starts_and_ends_at_full_capacity(self):
        report = _report()
        full_capacity = report.plan.num_hosts * report.plan.scenario.qps_per_host
        assert report.timeline[-1].effective_qps == pytest.approx(full_capacity)
        assert report.timeline[-1].hosts_offline == 0
        assert report.timeline[-1].hosts_warming == 0

    def test_offline_hosts_bounded_by_batch_size(self):
        report = _report(batch_fraction=0.1)
        batch_size = round(report.plan.num_hosts * 0.1)
        assert max(point.hosts_offline for point in report.timeline) <= batch_size

    def test_online_update_dips_less_than_offline_update(self):
        offline = _report(strategy=UpdateStrategy.FULL_OFFLINE)
        online = _report(strategy=UpdateStrategy.FULL_ONLINE)
        assert online.minimum_effective_qps >= offline.minimum_effective_qps

    def test_smaller_batches_dip_less(self):
        small = _report(batch_fraction=0.05)
        large = _report(batch_fraction=0.5)
        assert small.minimum_effective_qps >= large.minimum_effective_qps

    def test_extra_hosts_cover_the_dip(self):
        report = _report()
        target = report.plan.scenario.total_qps
        extra = report.extra_hosts_needed(target)
        covered = report.minimum_effective_qps + extra * report.plan.scenario.qps_per_host
        assert covered >= target
        assert report.extra_hosts_needed(1.0) == 0

    def test_extra_hosts_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            _report().extra_hosts_needed(0)

    def test_capacity_overhead_matches_formula(self):
        report = _report(
            batch_fraction=0.10,
            warmup_seconds=300,
            warmup_performance=0.5,
            update_interval_seconds=1800,
        )
        assert report.capacity_overhead == pytest.approx((0.10 * 5) / (0.5 * 30))

    def test_wave_duration_accounts_for_all_batches(self):
        report = _report(batch_fraction=0.25)
        assert report.wave_duration_seconds == pytest.approx(
            4 * report.update_duration_seconds + report.config.warmup_seconds
        )

    def test_invalid_time_step_rejected(self):
        with pytest.raises(ValueError):
            simulate_rolling_update(_plan(), _planner(), RollingUpdateConfig(), time_step_seconds=0)

    def test_incremental_updates_shorten_the_wave(self):
        full = _report(strategy=UpdateStrategy.FULL_OFFLINE)
        incremental = _report(strategy=UpdateStrategy.INCREMENTAL)
        assert incremental.wave_duration_seconds < full.wave_duration_seconds

