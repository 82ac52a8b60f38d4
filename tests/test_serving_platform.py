"""Tests for hardware platform configurations (Table 7)."""

import pytest

from repro.serving import HW_AN, HW_AO, HW_FA, HW_FAO, HW_L, HW_S, HW_SS
from repro.serving.platform import ALL_PLATFORMS, AcceleratorSpec, HostPlatform
from repro.sim.units import GB, TB
from repro.storage import Technology


class TestTable7Platforms:
    def test_all_platforms_registered(self):
        assert set(ALL_PLATFORMS) == {
            "HW-L",
            "HW-S",
            "HW-SS",
            "HW-AN",
            "HW-AO",
            "HW-FA",
            "HW-FAO",
        }

    def test_hw_l_is_dual_socket_256gb_no_ssd(self):
        assert HW_L.cpu_sockets == 2
        assert HW_L.dram_bytes == 256 * GB
        assert HW_L.ssds == ()
        assert HW_L.accelerator is None

    def test_hw_ss_has_two_2tb_nand_flash(self):
        assert HW_SS.dram_bytes == 64 * GB
        assert len(HW_SS.ssds) == 2
        assert all(ssd.technology is Technology.NAND_FLASH for ssd in HW_SS.ssds)
        assert HW_SS.total_sm_capacity_bytes == 4 * TB

    def test_hw_an_and_ao_have_accelerators(self):
        assert HW_AN.accelerator is not None and HW_AO.accelerator is not None
        assert all(s.technology is Technology.NAND_FLASH for s in HW_AN.ssds)
        assert all(s.technology is Technology.OPTANE_SSD for s in HW_AO.ssds)
        assert HW_AO.total_sm_capacity_bytes == pytest.approx(800 * GB)

    def test_hw_fao_has_nine_optane_ssds(self):
        assert len(HW_FAO.ssds) == 9
        assert all(ssd.max_read_iops == pytest.approx(4e6) for ssd in HW_FAO.ssds)

    def test_relative_power_values_match_paper_tables(self):
        assert HW_L.relative_power == 1.0
        assert HW_SS.relative_power == pytest.approx(0.4)  # Table 8
        assert HW_S.relative_power == pytest.approx(0.25)  # Table 9 helper hosts
        assert HW_AN.relative_power == HW_AO.relative_power == 1.0

    def test_hw_fao_power_close_to_hw_fa(self):
        """Table 11: the SDM platform draws ~1% more power than the baseline."""
        ratio = HW_FAO.power_with_ssds / HW_FA.power_with_ssds
        assert 1.0 < ratio < 1.03

    def test_accelerator_provides_compute_and_bandwidth(self):
        assert HW_AN.compute_flops == HW_AN.accelerator.flops_per_second
        assert HW_AN.fast_memory_bandwidth == HW_AN.accelerator.memory_bandwidth
        assert HW_L.compute_flops == HW_L.cpu_flops_per_second

    def test_hw_l_has_twice_the_compute_of_hw_ss(self):
        assert HW_L.cpu_flops_per_second == pytest.approx(2 * HW_SS.cpu_flops_per_second)


class TestValidation:
    def test_invalid_platform_rejected(self):
        with pytest.raises(ValueError):
            HostPlatform(
                name="bad",
                cpu_sockets=0,
                dram_bytes=GB,
                cpu_flops_per_second=1e12,
                dram_bandwidth=1e9,
            )
        with pytest.raises(ValueError):
            HostPlatform(
                name="bad",
                cpu_sockets=1,
                dram_bytes=GB,
                cpu_flops_per_second=1e12,
                dram_bandwidth=1e9,
                relative_power=0,
            )

    def test_invalid_accelerator_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorSpec(name="bad", memory_bytes=0, flops_per_second=1, memory_bandwidth=1)
