"""Tests for tier specs, parsing and the runtime tier objects."""

import numpy as np
import pytest

from repro.hierarchy import (
    DeviceTier,
    FastTier,
    TierSpec,
    TierStats,
    build_tiers,
    parse_technology,
    parse_tiers,
)
from repro.sim.units import GIB, KIB, MIB, TB, parse_size
from repro.storage.spec import TABLE1_SPECS, Technology

from helpers import fetch_rows


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            (4096, 4096),
            ("4KiB", 4 * KIB),
            ("8 MiB", 8 * MIB),
            ("1gib", GIB),
            ("2TB", 2 * TB),
            ("1.5KiB", 1536),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "huge", "4XB", None, True, 1.5])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)


class TestParseTechnology:
    def test_aliases(self):
        assert parse_technology("nand") is Technology.NAND_FLASH
        assert parse_technology("cxl") is Technology.CXL_3DXP
        assert parse_technology("dram") is Technology.DRAM

    def test_enum_value_and_name(self):
        assert parse_technology("pcie_zssd") is Technology.ZSSD
        assert parse_technology("OPTANE_SSD") is Technology.OPTANE_SSD
        assert parse_technology(Technology.DIMM_3DXP) is Technology.DIMM_3DXP

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown memory technology"):
            parse_technology("hdd")


class TestTierSpec:
    def test_from_string(self):
        spec = TierSpec.from_value("cxl:32GiB")
        assert spec.technology is Technology.CXL_3DXP
        assert spec.capacity_bytes == 32 * GIB
        assert spec.cache_bytes is None

    def test_from_string_with_cache(self):
        spec = TierSpec.from_value("nand:1TB:8MiB")
        assert spec.capacity_bytes == 1 * TB
        assert spec.cache_bytes == 8 * MIB

    def test_from_mapping(self):
        spec = TierSpec.from_value(
            {"technology": "optane", "capacity": "400GB", "cache": 4096, "devices": 2}
        )
        assert spec.technology is Technology.OPTANE_SSD
        assert spec.num_devices == 2
        assert spec.cache_bytes == 4096

    def test_mapping_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown tier keys"):
            TierSpec.from_value({"technology": "nand", "iops": 5})

    def test_long_key_spellings_are_unknown_keys(self):
        # An entry has one spelling per key, so a second spelling cannot
        # silently lose to the first.
        with pytest.raises(ValueError, match=r"unknown tier keys \['capacity_bytes'\]"):
            TierSpec.from_value(
                {"technology": "nand", "capacity": "1GiB", "capacity_bytes": "2GiB"}
            )
        with pytest.raises(ValueError, match=r"unknown tier keys \['cache_bytes'\]"):
            TierSpec.from_value(
                {"technology": "nand", "capacity": "1GiB", "cache": 1, "cache_bytes": 2}
            )
        with pytest.raises(ValueError, match=r"unknown tier keys \['num_devices'\]"):
            TierSpec.from_value({"technology": "nand", "num_devices": 2})

    def test_bare_technology_uses_table1_capacity(self):
        spec = TierSpec.from_value("zssd")
        assert spec.capacity_bytes == TABLE1_SPECS[Technology.ZSSD].capacity_bytes

    def test_empty_capacity_segment_keeps_its_slot(self):
        # "dram::64KiB" = default (zero) budget with a 64KiB cache; the cache
        # value must not silently shift into the capacity slot.
        spec = TierSpec.from_value("dram::64KiB")
        assert spec.capacity_bytes == 0
        assert spec.cache_bytes == 64 * KIB
        nand = TierSpec.from_value("nand::8MiB")
        assert nand.capacity_bytes == TABLE1_SPECS[Technology.NAND_FLASH].capacity_bytes
        assert nand.cache_bytes == 8 * MIB
        with pytest.raises(ValueError, match="tier string"):
            TierSpec.from_value(":1GiB")

    def test_device_tier_needs_capacity(self):
        with pytest.raises(ValueError, match="positive capacity"):
            TierSpec(technology=Technology.NAND_FLASH, capacity_bytes=0)

    def test_fast_tier_allows_zero_capacity(self):
        assert TierSpec(technology=Technology.DRAM, capacity_bytes=0).is_fast

    def test_round_trips_through_dict(self):
        spec = TierSpec.from_value("cxl:1GiB:4MiB")
        assert TierSpec.from_value(spec.to_dict()) == spec


class TestParseTiers:
    def test_comma_string(self):
        tiers = parse_tiers("dram:4GiB,cxl:32GiB,nand:1TiB")
        assert [t.technology for t in tiers] == [
            Technology.DRAM,
            Technology.CXL_3DXP,
            Technology.NAND_FLASH,
        ]
        assert tiers[0].is_fast and not tiers[1].is_fast

    def test_list_of_mixed_entries(self):
        tiers = parse_tiers(
            ["dram:1MiB", {"technology": "nand", "capacity": "1GiB"}]
        )
        assert len(tiers) == 2

    def test_tier0_must_be_fast(self):
        with pytest.raises(ValueError, match="tier 0 must be fast memory"):
            parse_tiers("nand:1TiB,dram:4GiB")

    def test_later_tiers_must_be_devices(self):
        with pytest.raises(ValueError, match="must be a device tier"):
            parse_tiers("dram:4GiB,dram:8GiB")

    def test_single_tier_rejected(self):
        with pytest.raises(ValueError, match="at least 2 tiers"):
            parse_tiers("dram:4GiB")

    def test_none_is_empty(self):
        assert parse_tiers(None) == ()


class TestRuntimeTiers:
    def test_build_tiers_unique_device_seeds(self):
        tiers = build_tiers(
            parse_tiers("dram:1MiB,cxl:64MiB,nand:1GiB"), seed=7
        )
        assert isinstance(tiers[0], FastTier)
        assert all(isinstance(t, DeviceTier) for t in tiers[1:])
        seeds = [seed for t in tiers[1:] for seed in t.device_seeds]
        assert len(seeds) == len(set(seeds))

    def test_device_capacity_split_across_devices(self):
        spec = TierSpec.from_value({"technology": "nand", "capacity": 8 * MIB, "devices": 2})
        tier = DeviceTier(spec)
        assert len(tier.devices) == 2
        assert all(d.spec.capacity_bytes == 4 * MIB for d in tier.devices)

    def test_segment_read_round_trip(self):
        spec = TierSpec.from_value("nand:1MiB")
        tier = DeviceTier(spec)
        tier.add_segment("t", 0, 100, 64, whole_table=True)
        completions = tier.read_rows_batch("t", np.array([3, 97, 11]), start_time=0.0)
        assert completions.shape == (3,) and (completions > 0.0).all()
        assert tier.device_stats().bytes_requested == 3 * 64
        assert tier.stats.ios == 3
        assert tier.stats.bytes_served == 3 * 64

    def test_multi_segment_resolution(self):
        spec = TierSpec.from_value("nand:1MiB")
        tier = DeviceTier(spec)
        tier.add_segment("t", 100, 200, 64)
        tier.add_segment("t", 300, 350, 64)
        tier.read_rows_batch("t", np.array([150, 320]), start_time=0.0)
        assert list(tier.io_engine._outstanding_per_table) == ["t@100", "t@300"]
        with pytest.raises(KeyError):
            tier.read_rows_batch("t", np.array([150, 250]), start_time=0.0)
        assert tier.stats.ios == 2  # nothing was read for the rejected batch

    def test_segment_tail_block_stays_zero_padded(self):
        tier = DeviceTier(TierSpec.from_value("nand:1MiB"))
        tier.add_segment("t", 0, 130, 100, whole_table=True)  # 40 rows a block
        device = tier.devices[0]
        assert device.stats.writes == 4
        assert device.stats.bytes_written == 4 * 4096
        # No row crosses a block: each block's 96-byte tail and the last
        # block's unused slots are left out of the layout.
        located = tier.layout.locate_batch("t", np.array([0, 39, 40, 129]))
        assert located.lba.tolist() == [0, 0, 1, 3]
        assert located.offset.tolist() == [0, 3900, 0, 900]

    def test_cost_model(self):
        from repro.hierarchy import cost_factor, memory_cost_dram_gb, pareto_frontier
        from repro.sim.units import GB

        assert cost_factor("dram") == 1.0
        assert cost_factor("pcie_nand_flash") == pytest.approx(1 / 30)
        with pytest.raises(KeyError, match="no cost factor"):
            cost_factor("hdd")
        tiers = [
            {"technology": "dram", "data_bytes": GB, "cache_capacity_bytes": 0},
            {"technology": "pcie_nand_flash", "data_bytes": 30 * GB,
             "cache_capacity_bytes": 0},
        ]
        assert memory_cost_dram_gb(tiers) == pytest.approx(2.0)
        points = [("a", 1.0, 5.0), ("b", 2.0, 1.0), ("c", 3.0, 3.0)]
        frontier = pareto_frontier(
            points, cost=lambda p: p[1], latency=lambda p: p[2]
        )
        assert [p[0] for p in frontier] == ["a", "b"]  # c dominated by b

    def test_tier_stats_merge(self):
        a = TierStats(cache_probes=4, cache_hits=2, rows_served=3, bytes_served=10, ios=1)
        b = TierStats(cache_probes=6, cache_hits=1)
        a.merge(b)
        assert a.cache_probes == 10 and a.cache_hits == 3
        assert a.cache_hit_rate == pytest.approx(0.3)


def _snapshot(tier):
    """Everything a read may move on a device tier."""
    return (
        tier.stats,
        tier.io_engine.stats,
        [(device.stats, device.channel_free.tolist(), device.rng.bit_generator.state)
         for device in tier.devices],
    )


class TestSegmentResolution:
    """DeviceTier.read_rows_batch: one segment passes through, several are
    grouped, and a row homed nowhere is rejected before anything is read."""

    @staticmethod
    def _split_tier():
        tier = DeviceTier(TierSpec.from_value("nand:1MiB"))
        tier.add_segment("t", 100, 200, 64)
        tier.add_segment("t", 300, 350, 64)
        return tier

    def test_empty_batch(self):
        tier = self._split_tier()
        before = repr(_snapshot(tier))
        completions = tier.read_rows_batch("t", np.zeros(0, dtype=np.int64), 0.0)
        assert completions.shape == (0,)
        assert repr(_snapshot(tier)) == before

    @pytest.mark.parametrize("outside", [100, -1, 1 << 40])
    def test_row_outside_the_only_segment(self, outside):
        tier = DeviceTier(TierSpec.from_value("nand:1MiB"))
        tier.add_segment("t", 0, 100, 64, whole_table=True)
        tier.read_rows_batch("t", np.array([0, 99]), 0.0)  # the segment's two ends
        before = repr(_snapshot(tier))
        with pytest.raises(KeyError, match=f"stored row {outside} "):
            tier.read_rows_batch("t", np.array([3, outside, 4]), 0.0)
        assert repr(_snapshot(tier)) == before  # nothing read, no stats moved

    def test_unknown_table_is_a_key_error(self):
        tier = self._split_tier()
        with pytest.raises(KeyError):
            tier.read_rows_batch("other", np.array([150]), 0.0)
        with pytest.raises(KeyError):
            tier.read_rows_batch("other", np.zeros(0, dtype=np.int64), 0.0)

    def test_batch_entirely_in_the_second_segment(self):
        tier, twin = self._split_tier(), self._split_tier()
        rows = np.array([349, 300, 320, 300])
        completions = tier.read_rows_batch("t", rows, 1e-3)
        # One submission under the second segment's layout key, rows
        # re-based on the segment's start.
        expected = twin.access_path.read_rows_batch("t@300", rows - 300, 1e-3)
        assert completions.tolist() == expected.tolist()
        assert tier.io_engine.stats == twin.io_engine.stats
        assert list(tier.io_engine._outstanding_per_table) == ["t@300"]
        assert tier.stats.ios == 4 and tier.stats.bytes_served == 4 * 64

    def test_rows_across_segments_are_grouped_in_first_occurrence_order(self):
        tier, twin = self._split_tier(), self._split_tier()
        rows = np.array([320, 150, 301, 199, 349])
        completions = tier.read_rows_batch("t", rows, 0.0)
        second = twin.access_path.read_rows_batch("t@300", np.array([20, 1, 49]), 0.0)
        first = twin.access_path.read_rows_batch("t@100", np.array([50, 99]), 0.0)
        assert completions[[0, 2, 4]].tolist() == second.tolist()
        assert completions[[1, 3]].tolist() == first.tolist()
        assert list(tier.io_engine._outstanding_per_table) == ["t@300", "t@100"]
        assert repr(_snapshot(tier)[1:]) == repr(_snapshot(twin)[1:])

    def test_segments_added_out_of_order_and_overlaps(self):
        tier = DeviceTier(TierSpec.from_value("nand:1MiB"))
        tier.add_segment("t", 300, 350, 64)
        tier.add_segment("t", 100, 200, 64)
        tier.read_rows_batch("t", np.array([150, 320]), 0.0)
        assert list(tier.io_engine._outstanding_per_table) == ["t@100", "t@300"]
        for start, end in ((150, 160), (50, 101), (349, 400), (0, 1000)):
            with pytest.raises(ValueError, match="overlaps"):
                tier.add_segment("t", start, end, 64)
        assert tier.device_stats().writes == 3  # one block and two: nothing more


class TestMissGrouping:
    """TierChain.fetch_batch submits each home tier's misses as one group,
    groups in order of first occurrence."""

    def test_two_device_tiers_with_interleaved_misses(self):
        from repro.hierarchy import (
            TierChain,
            TieredPlacement,
            TieredTablePlacement,
            TierSegment,
        )

        def build():
            fast = FastTier(TierSpec.from_value("dram:0"))
            mid = DeviceTier(TierSpec.from_value("cxl:64KiB"))
            slow = DeviceTier(TierSpec.from_value("nand:1MiB"), device_seed_offset=1)
            mid.add_segment("t", 0, 16, 64)
            slow.add_segment("t", 16, 32, 64)
            placement = TieredPlacement(num_tiers=3)
            placement.add(
                TieredTablePlacement(
                    table_name="t",
                    segments=(TierSegment(tier=1, start=0, end=16),
                              TierSegment(tier=2, start=16, end=32)),
                    cache_enabled=False,
                )
            )
            return TierChain([fast, mid, slow], placement), mid, slow

        chain, mid, slow = build()
        calls = []
        for index, tier in ((1, mid), (2, slow)):
            def spy(table_name, stored, start_time, _read=tier.read_rows_batch, _index=index):
                calls.append((_index, stored.tolist()))
                return _read(table_name, stored, start_time)
            tier.read_rows_batch = spy
        stored = np.array([20, 3, 31, 3, 0, 16])
        outcome = fetch_rows(chain, "t", stored, 0.0, row_len=64, cache_enabled=False)
        assert calls == [(2, [20, 31, 16]), (1, [3, 3, 0])]
        assert outcome.device_reads == 6
        assert outcome.reads_by_tier == {2: 3, 1: 3}

        # Same outcome as submitting the two groups by hand, slow tier first.
        _, twin_mid, twin_slow = build()
        slow_done = twin_slow.read_rows_batch("t", np.array([20, 31, 16]), 0.0)
        mid_done = twin_mid.read_rows_batch("t", np.array([3, 3, 0]), 0.0)
        assert outcome.completion_time == max(slow_done.max(), mid_done.max())
        assert repr(_snapshot(mid)) == repr(_snapshot(twin_mid))
        assert repr(_snapshot(slow)) == repr(_snapshot(twin_slow))
