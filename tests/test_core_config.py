"""Tests for the SDM configuration (Tuning API)."""

import pytest

from repro.core import DEFAULT_TIERS, AccessPathKind, SDMConfig, SoftwareDefinedMemory
from repro.core.config import DEFAULT_POOLED_CACHE_BYTES, DEFAULT_POOLED_LEN_THRESHOLD
from repro.storage import IOEngineConfig, Technology

from helpers import small_model


class TestSDMConfig:
    def test_defaults_are_the_papers_choices(self):
        config = SDMConfig()
        assert config.tiers[0].capacity_bytes == 0  # sm_only_with_cache
        assert config.cache_disable_alpha_threshold is None
        assert config.access_path is AccessPathKind.DIRECT_IO
        assert config.io.sub_block_reads is True
        assert config.inter_op_parallelism is True
        assert config.pooled_cache_enabled is True
        assert config.deprune_at_load is False
        assert config.dequantize_at_load is False

    def test_io_config_embedded(self):
        config = SDMConfig(io=IOEngineConfig(max_outstanding_per_device=8))
        assert config.io.max_outstanding_per_device == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SDMConfig(tiers=[{"technology": "dram", "capacity": 0},
                             {"technology": "nand", "capacity": "1GiB", "devices": 0}])
        with pytest.raises(ValueError):
            SDMConfig(row_cache_capacity_bytes=0)
        with pytest.raises(ValueError):
            SDMConfig(pooled_cache_capacity_bytes=0)
        with pytest.raises(ValueError):
            SDMConfig(pooled_len_threshold=-1)
        with pytest.raises(ValueError):
            SDMConfig(tiers=[{"technology": "dram", "capacity": -1}, "nand:1GiB"])
        with pytest.raises(ValueError):
            SDMConfig(tiers="dram:0,nand:0")

    def test_pinned_tables_default_empty(self):
        assert SDMConfig().pinned_fm_tables == ()

    def test_default_tiers_are_the_papers_host(self):
        # A DRAM tier homing no user table, its cache left to
        # row_cache_capacity_bytes, over two 2 TB Nand Flash devices.
        fast, device = SDMConfig().tiers
        assert (fast.technology, fast.capacity_bytes, fast.cache_bytes) == (
            Technology.DRAM, 0, None
        )
        assert (device.technology, device.capacity_bytes, device.num_devices) == (
            Technology.NAND_FLASH, 4_000_000_000_000, 2
        )
        assert SDMConfig().tiers == DEFAULT_TIERS

    def test_tiers_parse_from_any_spelling(self):
        config = SDMConfig(tiers="dram:64KiB,nand:1GiB")
        assert [tier.capacity_bytes for tier in config.tiers] == [64 << 10, 1 << 30]
        assert SDMConfig(tiers=[t.to_dict() for t in config.tiers]) == config

    def test_tier0_cache_and_row_cache_capacity_are_one_setting(self):
        # Tier 0's cache is the row cache: naming it twice would drop one.
        with pytest.raises(ValueError) as raised:
            SDMConfig(tiers="dram:0:512KiB,nand:1GiB", row_cache_capacity_bytes=64 << 10)
        assert "row_cache_capacity_bytes" in str(raised.value)
        assert "tier 0 names a cache" in str(raised.value)
        # Either spelling alone is fine.
        assert SDMConfig(tiers="dram:0:512KiB,nand:1GiB").tiers[0].cache_bytes == 512 << 10
        assert SDMConfig(tiers="dram:0,nand:1GiB", row_cache_capacity_bytes=64 << 10)


class TestPooledCacheFields:
    """The pooled cache's size and LenThreshold mean something only while it is on."""

    @pytest.mark.parametrize(
        "values",
        [
            {"pooled_cache_capacity_bytes": 123},
            {"pooled_len_threshold": 99},
            {"pooled_cache_capacity_bytes": 123, "pooled_len_threshold": 99},
        ],
        ids=["capacity", "threshold", "both"],
    )
    def test_a_value_set_while_the_cache_is_off_is_rejected(self, values):
        with pytest.raises(ValueError, match="pooled_cache_enabled is False"):
            SDMConfig(pooled_cache_enabled=False, **values)

    def test_the_cache_turned_off_alone_is_accepted(self):
        config = SDMConfig(pooled_cache_enabled=False)
        assert config.pooled_cache_capacity_bytes is None
        assert config.pooled_len_threshold is None

    def test_both_fields_default_to_unset(self):
        config = SDMConfig()
        assert config.pooled_cache_capacity_bytes is None
        assert config.pooled_len_threshold is None

    def test_unset_fields_build_the_default_cache(self):
        sdm = SoftwareDefinedMemory(small_model(), SDMConfig(row_cache_capacity_bytes=256 << 10))
        assert sdm.pooled_cache.capacity_bytes == DEFAULT_POOLED_CACHE_BYTES == 4 << 20
        assert sdm.pooled_cache.len_threshold == DEFAULT_POOLED_LEN_THRESHOLD == 1

    def test_set_fields_build_the_cache_they_name(self):
        config = SDMConfig(
            row_cache_capacity_bytes=256 << 10,
            pooled_cache_capacity_bytes=128 << 10,
            pooled_len_threshold=6,
        )
        sdm = SoftwareDefinedMemory(small_model(), config)
        assert sdm.pooled_cache.capacity_bytes == 128 << 10
        assert sdm.pooled_cache.len_threshold == 6
        off = SoftwareDefinedMemory(
            small_model(), SDMConfig(row_cache_capacity_bytes=256 << 10, pooled_cache_enabled=False)
        )
        assert off.pooled_cache is None
