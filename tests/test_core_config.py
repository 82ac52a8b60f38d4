"""Tests for the SDM configuration (Tuning API)."""

import pytest

from repro.core import AccessPathKind, PlacementPolicy, SDMConfig
from repro.storage import IOEngineConfig, Technology


class TestSDMConfig:
    def test_defaults_are_the_papers_choices(self):
        config = SDMConfig()
        assert config.placement_policy is PlacementPolicy.SM_ONLY_WITH_CACHE
        assert config.access_path is AccessPathKind.DIRECT_IO
        assert config.io.sub_block_reads is True
        assert config.inter_op_parallelism is True
        assert config.pooled_cache_enabled is True
        assert config.deprune_at_load is False
        assert config.dequantize_at_load is False

    def test_with_overrides_returns_modified_copy(self):
        base = SDMConfig()
        changed = base.with_overrides(device_technology=Technology.OPTANE_SSD, num_devices=4)
        assert changed.device_technology is Technology.OPTANE_SSD
        assert changed.num_devices == 4
        assert base.num_devices == 2

    def test_io_config_embedded(self):
        config = SDMConfig(io=IOEngineConfig(max_outstanding_per_device=8))
        assert config.io.max_outstanding_per_device == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SDMConfig(num_devices=0)
        with pytest.raises(ValueError):
            SDMConfig(row_cache_capacity_bytes=0)
        with pytest.raises(ValueError):
            SDMConfig(pooled_cache_capacity_bytes=0)
        with pytest.raises(ValueError):
            SDMConfig(pooled_len_threshold=-1)
        with pytest.raises(ValueError):
            SDMConfig(dram_budget_bytes=-1)
        with pytest.raises(ValueError):
            SDMConfig(device_capacity_bytes=0)

    def test_pinned_tables_default_empty(self):
        assert SDMConfig().pinned_fm_tables == ()
