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

    def test_tiers_reject_the_two_tier_fields_they_replace(self):
        # A tier list is the whole geometry: a device field, a DRAM budget or
        # the fixed FM/SM policy next to it would be silently dropped.
        with pytest.raises(ValueError) as raised:
            SDMConfig(
                tiers="dram:64KiB,nand:1GiB",
                num_devices=4,
                device_technology=Technology.OPTANE_SSD,
                device_capacity_bytes=1 << 30,
                dram_budget_bytes=5,
                placement_policy=PlacementPolicy.FIXED_FM_SM,
            )
        for name in (
            "num_devices",
            "device_technology",
            "device_capacity_bytes",
            "dram_budget_bytes",
            "fixed_fm_sm",
        ):
            assert name in str(raised.value)
        with pytest.raises(ValueError, match="num_devices"):
            SDMConfig(tiers="dram:64KiB,nand:1GiB", num_devices=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_devices", 4),
            ("device_technology", Technology.OPTANE_SSD),
            ("device_capacity_bytes", 1 << 30),
            ("dram_budget_bytes", 5),
            ("placement_policy", PlacementPolicy.FIXED_FM_SM),
        ],
    )
    def test_tiers_reject_each_replaced_field_alone(self, field, value):
        with pytest.raises(ValueError, match="with tiers set") as raised:
            SDMConfig(tiers="dram:64KiB,nand:1GiB", **{field: value})
        message = str(raised.value)
        assert field in message
        others = {"num_devices", "device_technology", "device_capacity_bytes", "dram_budget_bytes"}
        assert not [name for name in others - {field} if name in message]

    def test_tiers_accept_replaced_fields_left_at_their_defaults(self):
        # The rule is "set to a non-default value": spelling a default out
        # next to a tier list is not a second geometry.
        config = SDMConfig(
            tiers="dram:64KiB,nand:1GiB",
            device_technology=Technology.NAND_FLASH,
            num_devices=2,
            device_capacity_bytes=None,
            dram_budget_bytes=0,
            placement_policy="sm_only_with_cache",
        )
        assert [tier.capacity_bytes for tier in config.resolved_tiers()] == [64 << 10, 1 << 30]

    def test_tiers_accept_the_fields_they_read(self):
        config = SDMConfig(
            tiers="dram:64KiB,nand:1GiB",
            device_technology=Technology.NAND_FLASH,
            num_devices=2,
            placement_policy=PlacementPolicy.PER_TABLE_CACHE,
        )
        assert [tier.technology for tier in config.resolved_tiers()] == [
            Technology.DRAM,
            Technology.NAND_FLASH,
        ]
