"""Tests for N-tier placement: table granularity, row splits, conversions."""

import numpy as np
import pytest

from repro.hierarchy import (
    TieredPlacement,
    TieredTablePlacement,
    TierSegment,
    compute_tiered_placement,
    hotness_ranking,
    parse_tiers,
)
from repro.sim.units import BLOCK_SIZE

from helpers import small_table_specs


def _three_tiers(fast="dram:8KiB", mid="cxl:8KiB", slow="nand:64MiB"):
    return parse_tiers(f"{fast},{mid},{slow}")


class TestTableGranularity:
    def test_density_order_fills_fastest_first(self):
        specs = small_table_specs(num_user=3, num_item=1)
        placement = compute_tiered_placement(specs, _three_tiers())
        homes = {
            name: placement.for_table(name).tiers()[0]
            for name in ("user_0", "user_1", "user_2")
        }
        # Equal density: visit order decides; one table per 8KiB tier.
        assert sorted(homes.values()) == [0, 1, 2]

    def test_item_tables_on_tier0_not_budgeted(self):
        specs = small_table_specs(num_user=1, num_item=2)
        tiers = parse_tiers("dram:0,nand:64MiB")
        placement = compute_tiered_placement(specs, tiers)
        assert placement.for_table("item_0").tiers() == (0,)
        assert placement.for_table("item_1").tiers() == (0,)
        assert placement.for_table("user_0").tiers() == (1,)

    def test_pinned_tables_home_fast(self):
        specs = small_table_specs(num_user=2)
        tiers = parse_tiers("dram:0,nand:64MiB")
        placement = compute_tiered_placement(
            specs, tiers, pinned_fast_tables=["user_1"]
        )
        assert placement.for_table("user_1").tiers() == (0,)
        assert not placement.for_table("user_1").cache_enabled

    def test_cache_disable_threshold(self):
        specs = small_table_specs(num_user=2)
        placement = compute_tiered_placement(
            specs,
            parse_tiers("dram:0,nand:64MiB"),
            cache_disable_alpha_threshold=2.0,
        )
        assert not placement.for_table("user_0").cache_enabled

    def test_oversized_table_rejected(self):
        specs = small_table_specs(num_user=1, num_rows=4096)
        with pytest.raises(ValueError, match="does not fit in any tier"):
            compute_tiered_placement(specs, parse_tiers("dram:1KiB,nand:8KiB"))

    def test_device_budget_is_block_quantised(self):
        # 256 rows of 24 B = 6144 B of payload but 2 full blocks on a device.
        specs = small_table_specs(num_user=1, num_item=0)
        placement = compute_tiered_placement(specs, parse_tiers("dram:0,nand:8KiB"))
        assert placement.for_table("user_0").tiers() == (1,)
        with pytest.raises(ValueError, match="does not fit"):
            compute_tiered_placement(specs, parse_tiers("dram:0,nand:4KiB"))


class TestRowGranularity:
    def test_straddling_table_splits(self):
        specs = small_table_specs(num_user=3, num_item=1)
        placement = compute_tiered_placement(
            specs, _three_tiers(), granularity="rows"
        )
        split = [
            placement.for_table(name)
            for name in ("user_0", "user_1", "user_2")
            if placement.for_table(name).is_split
        ]
        assert split, "expected at least one row-split table"
        decision = split[0]
        assert decision.segments[0].start == 0
        assert decision.segments[-1].end == 256

    def test_row_hotness_attaches_rank_order(self):
        specs = small_table_specs(num_user=2, num_item=0)
        ranking = np.arange(255, -1, -1, dtype=np.int64)  # reversed ids
        placement = compute_tiered_placement(
            specs,
            _three_tiers(fast="dram:2KiB"),
            granularity="rows",
            row_hotness={"user_0": ranking, "user_1": ranking},
        )
        for name in ("user_0", "user_1"):
            decision = placement.for_table(name)
            if decision.is_split:
                assert decision.rank_order is not None
                np.testing.assert_array_equal(decision.rank_order, ranking)

    def test_bad_hotness_permutation_rejected(self):
        specs = small_table_specs(num_user=1, num_item=0)
        with pytest.raises(ValueError, match="permutation"):
            compute_tiered_placement(
                specs,
                _three_tiers(fast="dram:2KiB", mid="cxl:4KiB"),
                granularity="rows",
                row_hotness={"user_0": [0, 0, 1]},
            )

    def test_tiers_of_rows_vectorised(self):
        decision = TieredTablePlacement(
            table_name="t",
            segments=(
                TierSegment(tier=0, start=0, end=10),
                TierSegment(tier=2, start=10, end=30),
            ),
            cache_enabled=True,
        )
        tiers = decision.tiers_of_rows(np.array([0, 9, 10, 29]))
        np.testing.assert_array_equal(tiers, [0, 0, 2, 2])
        with pytest.raises(IndexError):
            decision.tiers_of_rows(np.array([30]))

    def test_tiers_of_rows_follows_reassigned_segments(self):
        # The lookup arrays are built once per assignment of ``segments``;
        # resolving a whole-table placement to its stored rows re-assigns.
        decision = TieredTablePlacement(
            table_name="t",
            segments=(TierSegment(tier=1, start=0, end=1 << 62),),
            cache_enabled=True,
        )
        np.testing.assert_array_equal(decision.tiers_of_rows(np.array([0, 500])), [1, 1])
        decision.segments = (
            TierSegment(tier=1, start=0, end=100),
            TierSegment(tier=2, start=100, end=200),
        )
        np.testing.assert_array_equal(decision.tiers_of_rows(np.array([99, 100, 0])), [1, 2, 1])
        with pytest.raises(IndexError):
            decision.tiers_of_rows(np.array([200]))
        with pytest.raises(IndexError):
            decision.tiers_of_rows(np.array([5, -1]))
        assert decision.tiers_of_rows(np.zeros(0, dtype=np.int64)).shape == (0,)
        twin = TieredTablePlacement(
            table_name="t", segments=decision.segments, cache_enabled=True
        )
        assert twin == decision  # the derived arrays take no part in equality


class TestConversions:
    def test_segments_must_tile_contiguously(self):
        with pytest.raises(ValueError, match="contiguously"):
            TieredTablePlacement(
                table_name="t",
                segments=(
                    TierSegment(tier=0, start=0, end=5),
                    TierSegment(tier=1, start=6, end=10),
                ),
                cache_enabled=True,
            )

    def test_duplicate_table_rejected(self):
        tiered = TieredPlacement(num_tiers=2)
        decision = TieredTablePlacement(
            table_name="t",
            segments=(TierSegment(tier=1, start=0, end=4),),
            cache_enabled=True,
        )
        tiered.add(decision)
        with pytest.raises(ValueError, match="already has a placement"):
            tiered.add(decision)

    def test_tier_bytes_accounting(self):
        specs = small_table_specs(num_user=2, num_item=1)
        spec_map = {s.name: s for s in specs}
        placement = compute_tiered_placement(
            specs, parse_tiers("dram:0,nand:64MiB")
        )
        user_bytes = sum(s.size_bytes for s in specs if s.is_user)
        item_bytes = sum(s.size_bytes for s in specs if not s.is_user)
        assert placement.tier_bytes(spec_map, 1) == user_bytes
        assert placement.tier_bytes(spec_map, 0) == item_bytes


class TestPlacementOwnership:
    def test_sdm_does_not_mutate_caller_placement(self):
        from repro.core import SoftwareDefinedMemory
        from repro.dlrm import prune_table

        from helpers import small_model, small_sdm_config

        model = small_model(num_user=1, num_item=0)
        placement = compute_tiered_placement(
            model.table_specs, parse_tiers("dram:0,nand:64MiB")
        )
        before = [
            (s.tier, s.start, s.end)
            for s in placement.for_table("user_0").segments
        ]
        pruned = {"user_0": prune_table(model.table("user_0"), 0.3, seed=1)}
        SoftwareDefinedMemory(
            model, small_sdm_config(tiers="dram:0,nand:64MiB"),
            placement=placement, pruned_tables=pruned,
        )
        after = [
            (s.tier, s.start, s.end)
            for s in placement.for_table("user_0").segments
        ]
        # Loading re-anchors segments on the pruned stored-row count, but
        # only on the SDM's private copy — the caller's object is untouched.
        assert after == before


class TestHotnessRanking:
    def test_ranks_by_frequency_then_id(self):
        trace = [3, 3, 3, 1, 1, 7]
        ranking = hotness_ranking(trace, num_rows=8)
        assert ranking[0] == 3 and ranking[1] == 1 and ranking[2] == 7
        assert sorted(ranking.tolist()) == list(range(8))

    def test_empty_trace_is_identity(self):
        np.testing.assert_array_equal(hotness_ranking([], 4), np.arange(4))

    def test_out_of_range_trace_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            hotness_ranking([5], num_rows=4)


class TestPropertyStyleEdgeCases:
    """Randomised edge sweeps: every generated model must either place
    cleanly (covering all rows exactly once) or raise a clear ValueError."""

    def test_random_geometries_place_or_reject(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            num_user = int(rng.integers(1, 5))
            num_rows = int(rng.integers(16, 1024))
            specs = small_table_specs(num_user=num_user, num_item=1, num_rows=num_rows)
            fast = int(rng.integers(0, 4)) * 4 * 1024
            mid_blocks = int(rng.integers(1, 8))
            tiers = parse_tiers(
                [
                    {"technology": "dram", "capacity": fast},
                    {"technology": "cxl", "capacity": mid_blocks * BLOCK_SIZE},
                    {"technology": "nand", "capacity": "64MiB"},
                ]
            )
            for granularity in ("table", "rows"):
                try:
                    placement = compute_tiered_placement(
                        specs, tiers, granularity=granularity
                    )
                except ValueError:
                    continue
                for spec in specs:
                    decision = placement.for_table(spec.name)
                    assert decision.segments[0].start == 0
                    assert decision.segments[-1].end == spec.num_rows
                    covered = sum(s.num_rows for s in decision.segments)
                    assert covered == spec.num_rows
