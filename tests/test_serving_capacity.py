"""Tests for capacity planning (Eq. 5-7) and SSD sizing (Table 10)."""

import pytest

from repro.serving import (
    DeploymentScenario,
    HW_L,
    HW_S,
    HW_SS,
    hosts_needed,
    plan_deployment,
    qps_per_host,
    sm_bound_qps,
    ssds_needed,
)
from repro.sim.units import MICROSECOND
from repro.storage import nand_flash_spec, optane_ssd_spec


class TestRooflines:
    def test_qps_is_min_of_memory_and_compute_bound(self):
        memory_bound = HW_L.fast_memory_bandwidth / 1e6
        compute_bound = HW_L.compute_flops / 1e9
        assert qps_per_host(HW_L, bytes_per_query=1e6, flops_per_query=1e9) == pytest.approx(
            min(memory_bound, compute_bound)
        )

    def test_dual_socket_doubles_cpu_bound_qps(self):
        flops = 5e9
        assert qps_per_host(HW_L, 1e3, flops) == pytest.approx(
            2 * qps_per_host(HW_SS, 1e3, flops)
        )

    def test_hosts_needed_ceils(self):
        assert hosts_needed(1000, 120) == 9
        assert hosts_needed(288_000, 240) == 1200  # M1 region demand on HW-L

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            qps_per_host(HW_L, 0, 1)
        with pytest.raises(ValueError):
            hosts_needed(0, 1)


class TestSmBoundQps:
    def test_optane_supports_much_higher_qps_than_nand(self):
        """Section 5.2: with the M2-like demand, Nand Flash caps QPS well
        below the accelerator's 450 while Optane keeps up.  The latency region
        of interest is 'up to a few 10s of us' (section 3), so the per-IO
        budget is ~100us."""
        lookups_per_query = 450 * 25  # tables x pooling factor
        hit_rate = 0.9
        budget = 100 * MICROSECOND
        nand = sm_bound_qps(lookups_per_query, [nand_flash_spec()] * 2, hit_rate, budget)
        optane = sm_bound_qps(lookups_per_query, [optane_ssd_spec()] * 2, hit_rate, budget)
        assert nand < 450
        assert optane > 450
        assert optane > nand * 3

    def test_hit_rate_raises_qps_bound(self):
        lookups = 1000
        low = sm_bound_qps(lookups, [nand_flash_spec()], 0.5, 1e-3)
        high = sm_bound_qps(lookups, [nand_flash_spec()], 0.95, 1e-3)
        assert high > low

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sm_bound_qps(0, [nand_flash_spec()], 0.5, 1e-3)
        with pytest.raises(ValueError):
            sm_bound_qps(10, [], 0.5, 1e-3)
        with pytest.raises(ValueError):
            sm_bound_qps(10, [nand_flash_spec()], 1.0, 1e-3)


class TestSsdSizing:
    def test_table10_m3_needs_nine_optane_ssds(self):
        """Table 10: 36 MIOPS at 4 MIOPS per Optane SSD -> 9 SSDs."""
        qps, tables, pooling, hit_rate = 3150, 2000, 30, 0.80
        required_iops = qps * tables * pooling * (1 - hit_rate)
        assert required_iops == pytest.approx(37.8e6)
        assert ssds_needed(36e6, optane_ssd_spec()) == 9
        assert ssds_needed(required_iops, optane_ssd_spec()) in (9, 10)

    def test_derating_increases_device_count(self):
        assert ssds_needed(1e6, nand_flash_spec(), derate=0.5) == 4
        assert ssds_needed(1e6, nand_flash_spec(), derate=1.0) == 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ssds_needed(0, optane_ssd_spec())
        with pytest.raises(ValueError):
            ssds_needed(1e6, optane_ssd_spec(), derate=0)


class TestDeploymentPlanning:
    def test_table8_shapes(self):
        """HW-L at 240 QPS vs HW-SS+SDM at 120 QPS for the same total demand."""
        total_qps = 240 * 1200
        baseline = plan_deployment(
            DeploymentScenario("HW-L", HW_L, qps_per_host=240, total_qps=total_qps)
        )
        sdm = plan_deployment(
            DeploymentScenario("HW-SS + SDM", HW_SS, qps_per_host=120, total_qps=total_qps)
        )
        assert baseline.num_hosts == 1200
        assert sdm.num_hosts == 2400
        assert baseline.total_power == pytest.approx(1200)
        assert sdm.total_power == pytest.approx(960)

    def test_helper_hosts_counted(self):
        plan = plan_deployment(
            DeploymentScenario(
                "scale-out",
                HW_L,
                qps_per_host=450,
                total_qps=450 * 1500,
                helper_platform=HW_S,
                helper_hosts_per_host=0.2,
            )
        )
        assert plan.num_helper_hosts == 300
        assert plan.total_hosts == 1800

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            DeploymentScenario("bad", HW_L, qps_per_host=0, total_qps=10)
        with pytest.raises(ValueError):
            DeploymentScenario("bad", HW_L, qps_per_host=1, total_qps=10, helper_hosts_per_host=0.5)
