"""Tests for placement policies (Table 5) and placement edge cases.

The policies are tier lists for the one placement function:
``sm_only_with_cache`` is the default list, ``fixed_fm_sm`` sets tier 0's
capacity to the DRAM budget, and ``per_table_cache`` adds the cache-disable
threshold.  Every case drives ``compute_tiered_placement`` with an
``SDMConfig``'s tiers, the way ``SoftwareDefinedMemory`` does.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DEFAULT_TIERS, SDMConfig, SoftwareDefinedMemory
from repro.dlrm import EmbeddingTableSpec, InferenceEngine, prune_table
from repro.hierarchy import (
    TieredTablePlacement,
    TierSegment,
    compute_tiered_placement,
    parse_tiers,
)


def _tiers(dram_budget=0):
    """The default list with tier 0's capacity set to ``dram_budget``."""
    return (replace(DEFAULT_TIERS[0], capacity_bytes=dram_budget),) + DEFAULT_TIERS[1:]


def _place(specs, dram_budget=0, **config_fields):
    """The placement an SDM with this config computes for ``specs``."""
    config = SDMConfig(tiers=_tiers(dram_budget), **config_fields)
    return compute_tiered_placement(
        specs,
        config.tiers,
        pinned_fast_tables=config.pinned_fm_tables,
        cache_disable_alpha_threshold=config.cache_disable_alpha_threshold,
    )


def _specs():
    return [
        EmbeddingTableSpec(
            name="user_hot",
            num_rows=1000,
            dim=56,
            is_user=True,
            avg_pooling_factor=50,
            zipf_alpha=1.1,
        ),
        EmbeddingTableSpec(
            name="user_cold_big",
            num_rows=100_000,
            dim=56,
            is_user=True,
            avg_pooling_factor=2,
            zipf_alpha=0.4,
        ),
        EmbeddingTableSpec(
            name="item_a",
            num_rows=5000,
            dim=56,
            is_user=False,
            avg_pooling_factor=10,
            zipf_alpha=1.2,
        ),
    ]


class TestSmOnlyPolicy:
    def test_all_user_tables_on_sm(self):
        placement = _place(_specs())
        assert set(placement.storage_tables()) == {"user_hot", "user_cold_big"}

    def test_item_tables_stay_in_fm(self):
        placement = _place(_specs())
        assert placement.for_table("item_a").tiers() == (0,)
        assert not placement.for_table("item_a").cache_enabled

    def test_cache_enabled_for_sm_tables(self):
        placement = _place(_specs())
        assert all(
            placement.for_table(name).cache_enabled for name in placement.storage_tables()
        )

    def test_is_the_default_list(self):
        specs = _specs()
        default = compute_tiered_placement(specs, SDMConfig().tiers)
        assert default == _place(specs)
        assert set(default.storage_tables()) == {"user_hot", "user_cold_big"}


class TestFixedFmSmPolicy:
    def test_zero_budget_equals_sm_only(self):
        placement = _place(_specs(), dram_budget=0)
        assert placement == compute_tiered_placement(_specs(), DEFAULT_TIERS)

    def test_budget_pins_highest_density_table(self):
        specs = _specs()
        hot_size = specs[0].size_bytes
        placement = _place(specs, dram_budget=hot_size)
        assert placement.for_table("user_hot").tiers() == (0,)
        # Served from fast memory, so no row cache in front of it.
        assert not placement.for_table("user_hot").cache_enabled
        assert placement.for_table("user_cold_big").tiers() == (1,)
        assert placement.for_table("user_cold_big").cache_enabled

    def test_highest_density_first_not_spec_order(self):
        # The dense table comes last in the model and still gets the budget.
        specs = _specs()[::-1]
        hot_size = specs[-1].size_bytes
        placement = _place(specs, dram_budget=hot_size)
        assert placement.tables_on(1) == ["user_cold_big"]
        assert list(placement.decisions) == [spec.name for spec in specs]

    def test_huge_budget_pins_everything(self):
        specs = _specs()
        total = sum(s.size_bytes for s in specs)
        placement = _place(specs, dram_budget=total)
        assert placement.storage_tables() == []

    def test_fm_direct_bytes_within_budget(self):
        specs = _specs()
        budget = specs[0].size_bytes + 10
        placement = _place(specs, dram_budget=budget)
        spec_map = {s.name: s for s in specs}
        user_fm = [n for n in placement.tables_on(0) if spec_map[n].is_user]
        assert user_fm == ["user_hot"]
        assert sum(spec_map[n].size_bytes for n in user_fm) <= budget


class TestPerTableCachePolicy:
    def test_low_locality_tables_skip_cache(self):
        placement = _place(_specs(), cache_disable_alpha_threshold=0.6)
        assert placement.for_table("user_hot").cache_enabled
        assert not placement.for_table("user_cold_big").cache_enabled

    def test_all_user_tables_still_on_sm(self):
        placement = _place(_specs(), cache_disable_alpha_threshold=0.6)
        assert set(placement.storage_tables()) == {"user_hot", "user_cold_big"}

    def test_no_threshold_keeps_every_cache(self):
        assert SDMConfig().cache_disable_alpha_threshold is None
        placement = _place(_specs())
        assert placement.for_table("user_cold_big").cache_enabled


class TestPinnedTablesAndValidation:
    def test_pinned_table_never_on_sm(self):
        placement = _place(_specs(), pinned_fm_tables=("user_cold_big",))
        assert placement.for_table("user_cold_big").tiers() == (0,)
        assert not placement.for_table("user_cold_big").cache_enabled

    def test_pinned_table_not_charged_to_the_budget(self):
        specs = _specs()
        placement = _place(
            specs, dram_budget=specs[0].size_bytes, pinned_fm_tables=("user_cold_big",)
        )
        # The budget still fits user_hot although the pinned table is larger.
        assert placement.storage_tables() == []

    def test_unknown_pinned_table_rejected(self):
        with pytest.raises(ValueError, match="pinned tables not present"):
            _place(_specs(), pinned_fm_tables=("nope",))

    def test_duplicate_decision_rejected(self):
        placement = _place(_specs())
        with pytest.raises(ValueError, match="already has a placement"):
            placement.add(
                TieredTablePlacement("item_a", (TierSegment(1, 0, 5000),), True)
            )

    def test_missing_table_lookup_rejected(self):
        placement = _place(_specs())
        with pytest.raises(KeyError):
            placement.for_table("ghost")

    def test_byte_accounting(self):
        specs = _specs()
        placement = _place(specs)
        spec_map = {s.name: s for s in specs}
        assert placement.tier_bytes(spec_map, 1) == sum(
            s.size_bytes for s in specs if s.is_user
        )
        assert placement.tier_bytes(spec_map, 0) == specs[2].size_bytes

    def test_budget_accepts_the_string_spelling(self):
        specs = _specs()
        config = SDMConfig(tiers=f"dram:{specs[0].size_bytes},nand:1GiB")
        placement = compute_tiered_placement(specs, config.tiers)
        assert placement.tables_on(1) == ["user_cold_big"]
        with pytest.raises(ValueError, match="unknown memory technology"):
            SDMConfig(tiers="dram:0,fastest:1GiB")


class TestPlacementEdgeCases:
    """Edge geometries: zero FM budget, oversized tables, all-pruned rows."""

    def test_zero_fm_budget_sends_every_user_table_to_sm(self):
        for threshold in (None, 0.6):  # sm_only_with_cache, per_table_cache
            placement = _place(_specs(), cache_disable_alpha_threshold=threshold)
            assert set(placement.storage_tables()) == {"user_hot", "user_cold_big"}
        tiered = compute_tiered_placement(_specs(), parse_tiers("dram:0,nand:64MiB"))
        assert set(tiered.storage_tables()) == {"user_hot", "user_cold_big"}
        assert tiered.for_table("item_a").tiers() == (0,)

    def test_negative_budget_rejected_and_tiny_budget_pins_nothing(self):
        from repro.hierarchy import TierSpec
        from repro.storage.spec import Technology

        with pytest.raises(ValueError, match="non-negative"):
            SDMConfig(tiers=[{"technology": "dram", "capacity": -1}, "nand:1GiB"])
        with pytest.raises(ValueError, match="non-negative"):
            TierSpec(technology=Technology.DRAM, capacity_bytes=-4096)
        specs = _specs()
        smallest = min(s.size_bytes for s in specs if s.is_user)
        placement = _place(specs, dram_budget=smallest - 1)
        assert set(placement.storage_tables()) == {"user_hot", "user_cold_big"}

    def test_table_larger_than_every_tier_combined_rejected(self):
        specs = _specs()
        total = sum(s.size_bytes for s in specs if s.is_user)
        tiers = parse_tiers(
            [
                {"technology": "dram", "capacity": 0},
                {"technology": "cxl", "capacity": 4096},
                {"technology": "nand", "capacity": 4096},
            ]
        )
        with pytest.raises(ValueError, match="does not fit"):
            compute_tiered_placement(specs, tiers)
        with pytest.raises(ValueError, match="does not fit"):
            compute_tiered_placement(specs, tiers, granularity="rows")
        assert total > 8192  # the rejection was about capacity, not vacuous

    def test_sm_layout_overflow_surfaces_as_value_error(self):
        """A device tier too small for the placed tables fails loudly at
        load time, not silently at serve time."""
        from helpers import small_model, small_sdm_config

        model = small_model(num_user=4, num_item=0)
        with pytest.raises(ValueError, match="free blocks|does not fit"):
            SoftwareDefinedMemory(
                model,
                small_sdm_config(tiers="dram:0,nand:8KiB"),
            )

    def test_all_pruned_request_serves_zeros_without_io(self):
        from helpers import small_model, small_sdm_config

        model = small_model(num_user=1, num_item=0)
        pruned = {"user_0": prune_table(model.table("user_0"), 0.9, seed=3)}
        sdm = SoftwareDefinedMemory(
            model,
            small_sdm_config(pooled_cache_enabled=False),
            pruned_tables=pruned,
        )
        mapping = pruned["user_0"].mapping
        pruned_rows = np.nonzero(mapping == -1)[0][:8].tolist()
        done = sdm.serve({"user_0": pruned_rows}, 0.0)
        pooled = InferenceEngine(model, sdm.compute, sdm).user_pooled({"user_0": pruned_rows})
        np.testing.assert_array_equal(pooled["user_0"], np.zeros_like(pooled["user_0"]))
        assert sdm.stats.sm_ios == 0
        assert sdm.stats.pruned_rows_skipped == len(pruned_rows)
        assert done > 0.0  # the mapping lookups still cost host time


def _sm_layout(sdm):
    """``{table: (device_index, first_lba)}`` in allocation order (one device tier)."""
    (tier,) = sdm.device_tiers
    return {
        name: (tier.layout.extent(name).device_index, tier.layout.extent(name).first_lba)
        for name in tier.layout.tables()
    }


class TestPoliciesMoveOnlyThePlacement:
    """A policy comparison is meaningful only when nothing but the placement
    moves.  The density-sorted fixed FM/SM branch of the old two-tier
    function also laid the SM tables out in density order, so the same
    placement served differently under another policy name."""

    HOST = {"row_cache_capacity_bytes": 64 * 1024}

    @staticmethod
    def _tier_dicts(dram_budget):
        return [tier.to_dict() for tier in _tiers(dram_budget)]

    @staticmethod
    def _run(options):
        from repro import BackendChoice, ScenarioSpec, Session, WorkloadChoice

        spec = ScenarioSpec(
            backend=BackendChoice(name="sdm", options=options),
            workload=WorkloadChoice(num_queries=150),
        )
        return Session(spec).run().to_dict()

    def test_zero_budget_fixed_fm_sm_serves_exactly_like_sm_only(self):
        sm_only = self._run(self.HOST)
        fixed = self._run({**self.HOST, "tiers": self._tier_dicts(0)})
        assert fixed == sm_only
        assert sm_only["tiers"][1]["ios"] > 0  # the devices did serve

    def test_the_same_host_spelled_as_a_tiers_list_serves_the_same(self):
        from repro.storage.spec import TABLE1_SPECS, Technology

        sm_only = self._run(self.HOST)
        device_bytes = TABLE1_SPECS[Technology.NAND_FLASH].capacity_bytes
        spelled = self._run(
            {
                "tiers": [
                    {"technology": "dram", "capacity": 0, "cache": 64 * 1024},
                    {"technology": "nand", "capacity": 2 * device_bytes, "devices": 2},
                ]
            }
        )
        assert spelled["latency_seconds"] == sm_only["latency_seconds"]
        assert spelled["makespan_seconds"] == sm_only["makespan_seconds"]
        assert [t["ios"] for t in spelled["tiers"]] == [t["ios"] for t in sm_only["tiers"]]

    def test_raising_the_budget_only_removes_tables_from_the_devices(self):
        from repro.dlrm import M1_SPEC, build_scaled_model

        model = build_scaled_model(
            M1_SPEC, max_tables_per_group=4, max_rows_per_table=512, item_batch=2, seed=0
        )
        user_specs = [spec for spec in model.table_specs if spec.is_user]
        names = [spec.name for spec in user_specs]
        by_density = sorted(
            user_specs, key=lambda s: s.bytes_per_query / s.size_bytes, reverse=True
        )
        # The budget is not spent in model order, or this checks nothing.
        assert [spec.name for spec in by_density] != names
        host = dict(self.HOST, pooled_cache_enabled=False)
        budget, previous = 0, None
        for homed_in_fm in range(len(names) + 1):
            sdm = SoftwareDefinedMemory(
                model,
                SDMConfig(tiers=_tiers(budget), **host),
            )
            on_sm = sdm.placement.storage_tables()
            assert set(on_sm) == {spec.name for spec in by_density[homed_in_fm:]}
            layout = _sm_layout(sdm)
            # Allocation order is model order, whatever order the budget was
            # spent in; so first_lba grows in model order on every device.
            assert list(layout) == [name for name in names if name in on_sm]
            for device in (0, 1):
                lbas = [lba for index, lba in layout.values() if index == device]
                assert lbas == sorted(lbas)
            # The layout depends on which tables are on SM and on nothing
            # else: pinning the FM-homed tables under SM-only gives the same.
            pinned = SoftwareDefinedMemory(
                model,
                SDMConfig(
                    pinned_fm_tables=tuple(n for n in names if n not in on_sm), **host
                ),
            )
            assert _sm_layout(pinned) == layout
            if previous is not None:
                assert set(on_sm) < set(previous)
            previous = on_sm
            if homed_in_fm < len(names):
                budget += by_density[homed_in_fm].size_bytes

    def test_a_budget_no_table_fits_serves_like_sm_only(self):
        result = self._run({**self.HOST, "tiers": self._tier_dicts(123)})
        assert result["tiers"][0]["capacity_bytes"] == 123
        reference = self._run(self.HOST)
        assert reference["tiers"][0]["capacity_bytes"] == 0
        # So nothing was homed in FM on the budget.
        assert result["latency_seconds"] == reference["latency_seconds"]
        assert result["makespan_seconds"] == reference["makespan_seconds"]
        assert [t["ios"] for t in result["tiers"]] == [t["ios"] for t in reference["tiers"]]


class TestSuppliedPlacement:
    def test_anything_but_a_tiered_placement_is_a_type_error(self):
        from helpers import small_model, small_sdm_config

        model = small_model()
        for stray in ({"user_0": 0}, "sm_only_with_cache", object()):
            with pytest.raises(TypeError, match="TieredPlacement"):
                SoftwareDefinedMemory(model, small_sdm_config(), placement=stray)

    def test_placement_with_more_tiers_than_the_config_is_rejected(self):
        from helpers import small_model, small_sdm_config

        model = small_model()
        three_tier = compute_tiered_placement(
            model.table_specs, parse_tiers("dram:0,cxl:64KiB,nand:1MiB")
        )
        with pytest.raises(ValueError, match="references 3 tiers but the config has 2"):
            SoftwareDefinedMemory(model, small_sdm_config(), placement=three_tier)
