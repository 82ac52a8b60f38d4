"""Tests for device specifications (paper Table 1)."""

import pytest

from repro.sim.units import GB, KIB, MICROSECOND, TB
from repro.storage import (
    TABLE1_SPECS,
    DeviceSpec,
    Technology,
    cxl_3dxp_spec,
    dimm_3dxp_spec,
    nand_flash_spec,
    optane_ssd_spec,
    zssd_spec,
)


class TestTable1Values:
    def test_all_technologies_present(self):
        assert set(TABLE1_SPECS) == {
            Technology.NAND_FLASH,
            Technology.OPTANE_SSD,
            Technology.ZSSD,
            Technology.DIMM_3DXP,
            Technology.CXL_3DXP,
        }

    def test_nand_flash_iops_and_granularity(self):
        spec = nand_flash_spec()
        assert spec.max_read_iops == pytest.approx(0.5e6)
        assert spec.access_granularity_bytes == 4 * KIB
        assert spec.sourcing == "multi"

    def test_optane_iops_latency_granularity(self):
        spec = optane_ssd_spec()
        assert spec.max_read_iops == pytest.approx(4e6)
        assert spec.access_granularity_bytes == 512
        # O(10us) unloaded latency.
        assert spec.base_read_latency == pytest.approx(10 * MICROSECOND)

    def test_optane_latency_order_of_magnitude_better_than_nand(self):
        assert nand_flash_spec().base_read_latency / optane_ssd_spec().base_read_latency >= 5

    def test_optane_endurance_much_higher_than_nand(self):
        assert optane_ssd_spec().endurance_dwpd / nand_flash_spec().endurance_dwpd >= 10

    def test_relative_costs_ordering(self):
        # Nand Flash is the cheapest per GB; Optane SSD sits between Nand and DIMM.
        assert nand_flash_spec().relative_cost_per_gb < zssd_spec().relative_cost_per_gb
        assert zssd_spec().relative_cost_per_gb < optane_ssd_spec().relative_cost_per_gb
        assert optane_ssd_spec().relative_cost_per_gb < dimm_3dxp_spec().relative_cost_per_gb
        assert all(spec.relative_cost_per_gb < 1.0 for spec in TABLE1_SPECS.values())

    def test_cxl_has_highest_iops(self):
        iops = {tech: spec.max_read_iops for tech, spec in TABLE1_SPECS.items()}
        assert max(iops, key=iops.get) in (Technology.CXL_3DXP, Technology.DIMM_3DXP)
        assert cxl_3dxp_spec().max_read_iops > 10e6

    def test_byte_addressable_technologies_have_small_granularity(self):
        assert dimm_3dxp_spec().access_granularity_bytes == 64
        assert cxl_3dxp_spec().access_granularity_bytes <= 128


class TestDeviceSpecValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            nand_flash_spec(capacity_bytes=0)

    def test_with_capacity_returns_copy(self):
        spec = nand_flash_spec(2 * TB)
        smaller = spec.with_capacity(100 * GB)
        assert smaller.capacity_bytes == 100 * GB
        assert spec.capacity_bytes == 2 * TB
        assert smaller.max_read_iops == spec.max_read_iops

    def test_service_time_matches_aggregate_iops(self):
        spec = optane_ssd_spec()
        # parallelism channels each serving one IO per service_time gives max IOPS.
        aggregate = spec.internal_parallelism / spec.service_time_per_io()
        assert aggregate == pytest.approx(spec.max_read_iops)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                technology=Technology.NAND_FLASH,
                capacity_bytes=GB,
                max_read_iops=-1,
                base_read_latency=1e-4,
                access_granularity_bytes=4096,
                supports_sub_block=True,
                endurance_dwpd=5,
                relative_cost_per_gb=0.1,
                sourcing="multi",
            )
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                technology=Technology.NAND_FLASH,
                capacity_bytes=GB,
                max_read_iops=1e6,
                base_read_latency=1e-4,
                access_granularity_bytes=4096,
                supports_sub_block=True,
                endurance_dwpd=5,
                relative_cost_per_gb=0.1,
                sourcing="multi",
                tail_latency_probability=1.5,
            )
