"""Parity and end-to-end tests for the N-tier refactor.

The load-bearing guarantees:

* the default two-tier spec produces **bit-identical** ScenarioResult
  metrics whether the tier chain is left at its default list or spelled out
  as an explicit ``tiers`` list (with the row cache as tier 0's cache);
* a ``dram,cxl,nand`` 3-tier scenario runs end-to-end through both
  :meth:`Session.run` and the CLI with per-tier hit rates in the output;
* the batched NumPy decode path is exactly equal to the per-row reference.
"""

import json

import numpy as np
import pytest

from repro.api import ScenarioSpec, Session
from repro.api.cli import main as cli_main
from repro.api.spec import BackendChoice
from repro.core.config import DEFAULT_TIERS
from repro.core.sdm import SoftwareDefinedMemory
from repro.dlrm.quantization import dequantize_rows, quantize_rows

from helpers import (
    assert_scores_match_dram,
    fetch_rows,
    small_model,
    small_queries,
    small_sdm_config,
)

THREE_TIERS = "dram:8KiB,cxl:8KiB:4KiB,nand:64MiB"


def _serve_many(sdm, model, count=50):
    for query in small_queries(model, count):
        sdm.serve(query.user_indices, 0.0)
        sdm.on_query_complete()


class TestTwoTierParity:
    """The classic stack is a bit-identical special case of the chain."""

    def test_explicit_tiers_match_legacy_exactly(self):
        spec = ScenarioSpec(
            name="parity",
            backend=BackendChoice(
                name="sdm",
                options={"row_cache_capacity_bytes": 256 * 1024},
            ),
        )
        legacy = Session(spec).run().to_dict()

        tiers = [tier.to_dict() for tier in DEFAULT_TIERS]
        explicit = Session(
            spec.replace("backend.options.tiers", tiers)
        ).run().to_dict()
        assert legacy == explicit

    def test_sdm_stats_identical_through_chain(self):
        model_a, model_b = small_model(num_user=3), small_model(num_user=3)
        legacy = SoftwareDefinedMemory(model_a, small_sdm_config())
        explicit = SoftwareDefinedMemory(
            model_b,
            small_sdm_config(
                tiers=[
                    {"technology": "dram", "capacity": 0, "cache": 256 * 1024},
                    DEFAULT_TIERS[1].to_dict(),
                ]
            ),
        )
        for query in small_queries(model_a, 40):
            done_a = legacy.serve(query.user_indices, 0.0)
            done_b = explicit.serve(query.user_indices, 0.0)
            assert done_a == done_b  # bit-identical simulated time
        assert legacy.stats.sm_ios == explicit.stats.sm_ios
        assert legacy.row_cache_hit_rate == explicit.row_cache_hit_rate
        assert legacy.fm_footprint_bytes() == explicit.fm_footprint_bytes()
        assert legacy.sm_footprint_bytes() == explicit.sm_footprint_bytes()

    def test_legacy_results_report_two_tiers(self):
        spec = ScenarioSpec.from_dict(
            {"workload": {"num_queries": 20}, "serving": {"warmup_queries": 0}}
        )
        result = Session(spec).run()
        assert result.tiers is not None and len(result.tiers) == 2
        assert result.tiers[0]["technology"] == "dram"
        assert result.tiers[1]["ios"] > 0


class TestThreeTierEndToEnd:
    def test_session_run_reports_per_tier_hit_rates(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "3tier",
                "model": {"max_rows_per_table": 256},
                "backend": {
                    "name": "tiered",
                    "options": {
                        "tiers": "dram:48KiB,cxl:48KiB:8KiB,nand:64MiB",
                        "row_cache_capacity_bytes": 64 * 1024,
                    },
                },
                "workload": {"num_queries": 60},
                "serving": {"warmup_queries": 0},
            }
        )
        result = Session(spec).run()
        assert result.tiers is not None and len(result.tiers) == 3
        technologies = [tier["technology"] for tier in result.tiers]
        assert technologies == ["dram", "cxl_3dxp", "pcie_nand_flash"]
        assert result.tiers[0]["cache_hit_rate"] is not None
        # Both device tiers actually served rows in this geometry.
        assert result.tiers[1]["rows_served"] > 0
        assert result.tiers[2]["rows_served"] > 0
        rows = result.summary_table()
        assert "tier1 (cxl_3dxp)" in rows and "tier2 (pcie_nand_flash)" in rows

    def test_three_tier_numerics_match_dram_reference(self):
        model = small_model(num_user=3, num_item=1)
        sdm = SoftwareDefinedMemory(model, small_sdm_config(tiers=THREE_TIERS))
        assert_scores_match_dram(model, sdm, small_queries(model, 50))
        assert sdm.tiers[2].stats.rows_served > 0

    def test_row_split_numerics_match_dram_reference(self):
        model = small_model(num_user=3, num_item=1)
        sdm = SoftwareDefinedMemory(
            model,
            small_sdm_config(
                tiers="dram:8KiB,cxl:8KiB,nand:64MiB",
                split_rows=True,
                pooled_cache_enabled=False,
            ),
        )
        assert any(
            decision.is_split
            for decision in sdm.placement.decisions.values()
        )
        assert_scores_match_dram(model, sdm, small_queries(model, 50))

    def test_middle_tier_is_faster_than_bottom_tier(self):
        """A table homed on CXL completes strictly faster than on NAND."""
        model = small_model(num_user=1, num_item=0)
        on_cxl = SoftwareDefinedMemory(
            model,
            small_sdm_config(tiers="dram:0,cxl:64MiB", pooled_cache_enabled=False),
        )
        on_nand = SoftwareDefinedMemory(
            small_model(num_user=1, num_item=0),
            small_sdm_config(tiers="dram:0,nand:64MiB", pooled_cache_enabled=False),
        )
        query = small_queries(model, 1)[0]
        cxl_done = on_cxl.serve(query.user_indices, 0.0)
        nand_done = on_nand.serve(query.user_indices, 0.0)
        assert cxl_done < nand_done

    def test_cli_three_tier_run_json(self, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "--set", "model.max_rows_per_table=256",
                    "--set", "workload.num_queries=40",
                    "--set", "serving.warmup_queries=0",
                    "--tiers", "dram:48KiB,cxl:48KiB:8KiB,nand:64MiB",
                    "--set", "backend.options.row_cache_capacity_bytes=65536",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "tiered"
        assert len(payload["tiers"]) == 3
        assert payload["tiers"][0]["cache_hit_rate"] is not None
        assert payload["tiers"][1]["rows_served"] > 0

    def test_cli_list_devices(self, capsys):
        assert cli_main(["list-devices", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        technologies = {entry["technology"] for entry in payload}
        assert "pcie_nand_flash" in technologies and "cxl_3dxp" in technologies
        nand = next(e for e in payload if e["technology"] == "pcie_nand_flash")
        assert "nand" in nand["aliases"]
        assert nand["cost_per_gb_vs_dram"] < 1.0

    def test_cli_tier_sweep_dotted_path(self, capsys):
        assert (
            cli_main(
                [
                    "campaign",
                    "--grid", "tiers.1.capacity=8KiB,1MiB",
                    "--tiers", "dram:0,cxl:8KiB,nand:64MiB",
                    "--set", "model.max_rows_per_table=256",
                    "--set", "workload.num_queries=20",
                    "--set", "serving.warmup_queries=0",
                    "--quiet",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [point["coords"] for point in payload] == [
            [["tiers.1.capacity", "8KiB"]],
            [["tiers.1.capacity", "1MiB"]],
        ]
        served = [point["result"]["tiers"][1]["rows_served"] for point in payload]
        assert served[1] > served[0]  # larger CXL tier homes more tables


class TestPromotionPolicies:
    def _run(self, promotion):
        model = small_model(num_user=3, num_item=0)
        sdm = SoftwareDefinedMemory(
            model,
            small_sdm_config(
                tiers=THREE_TIERS,
                promotion=promotion,
                pooled_cache_enabled=False,
            ),
        )
        _serve_many(sdm, model, 40)
        return sdm

    def test_promotion_none_leaves_caches_cold(self):
        sdm = self._run("none")
        assert sdm.row_cache.item_count == 0
        # Every SM-homed lookup goes to a device when nothing is promoted.
        assert sdm.stats.sm_ios == sdm.stats.sm_row_lookups

    def test_promotion_top_fills_only_fastest_cache(self):
        sdm = self._run("top")
        assert sdm.row_cache.item_count > 0
        middle = sdm.tiers[1]
        assert middle.cache is not None and middle.cache.item_count == 0

    def test_promotion_all_fills_middle_cache_too(self):
        sdm = self._run("all")
        middle = sdm.tiers[1]
        assert middle.cache is not None and middle.cache.item_count > 0

    def test_default_promotion_makes_device_caches_functional(self):
        # The default must be "all": a configured middle-tier cache that can
        # structurally never fill would be probe overhead plus charged cost.
        assert small_sdm_config().promotion == "all"
        model = small_model(num_user=3, num_item=0)
        sdm = SoftwareDefinedMemory(
            model, small_sdm_config(tiers=THREE_TIERS, pooled_cache_enabled=False)
        )
        _serve_many(sdm, model, 40)
        middle = sdm.tiers[1]
        if any(
            segment.tier > 1
            for decision in sdm.placement.decisions.values()
            for segment in decision.segments
        ):
            assert middle.cache is not None and middle.cache.item_count > 0

    def test_unknown_promotion_rejected(self):
        with pytest.raises(ValueError, match="promotion"):
            small_sdm_config(promotion="sideways")

    def test_mid_tier_cache_hit_pays_media_time_and_repromotes(self):
        from repro.cache.unified import UnifiedRowCache
        from repro.hierarchy import (
            DeviceTier,
            FastTier,
            TierChain,
            TieredPlacement,
            TieredTablePlacement,
            TierSegment,
            TierSpec,
        )

        fast_cache = UnifiedRowCache(4096)
        fast = FastTier(TierSpec.from_value("dram:0"), cache=fast_cache)
        mid = DeviceTier(TierSpec.from_value("cxl:64KiB:16KiB"))
        slow = DeviceTier(TierSpec.from_value("nand:1MiB"))
        assert mid.cache_hit_seconds(64) > 0.0
        slow.add_segment("t", 0, 16, 64, whole_table=True)
        placement = TieredPlacement(num_tiers=3)
        placement.add(
            TieredTablePlacement(
                table_name="t",
                segments=(TierSegment(tier=2, start=0, end=16),),
                cache_enabled=True,
            )
        )
        chain = TierChain(
            [fast, mid, slow], placement,
            promotion="all", cache_probe_seconds=1e-7,
        )
        fetch = dict(stored=np.array([3]), start_time=0.0, row_len=64)
        # First fetch: NAND read, filled into both upper caches.
        fetch_rows(chain, "t", **fetch)
        assert fast_cache.item_count == 1 and mid.cache.item_count == 1
        # Evict it from tier 0 with rows keyed past the chain's keys; the
        # next access hits tier 1's cache, pays its media time on top of the
        # probes, and re-promotes into tier 0.
        key = chain.row_keys("t", np.array([3]))
        fast_cache.fill_batch(64, 16 + np.arange(64))
        assert fast_cache.lookup_batch(64, key)[0] < 0
        outcome = fetch_rows(chain, "t", **fetch)
        assert outcome.cache_hits == 1 and outcome.device_reads == 0
        assert outcome.completion_time > 2 * 1e-7  # probes + CXL media time
        assert fast_cache.lookup_batch(64, key)[0] >= 0  # re-promoted


class TestStrictConfiguration:
    def test_partial_placement_fails_at_serve_not_silently(self):
        from repro.hierarchy import TieredPlacement, TieredTablePlacement, TierSegment

        model = small_model(num_user=2, num_item=0)
        partial = TieredPlacement(num_tiers=2)
        partial.add(
            TieredTablePlacement(
                table_name="user_0",
                segments=(TierSegment(tier=1, start=0, end=256),),
                cache_enabled=True,
            )
        )
        sdm = SoftwareDefinedMemory(
            model, small_sdm_config(tiers="dram:0,nand:64MiB"), placement=partial
        )
        with pytest.raises(KeyError, match="user_1"):
            sdm.serve({"user_1": [1, 2]}, 0.0)

    def test_empty_tiers_value_rejected(self):
        with pytest.raises(ValueError, match="names no tiers"):
            small_sdm_config(tiers="")
        with pytest.raises(ValueError, match="names no tiers"):
            small_sdm_config(tiers=[])
        with pytest.raises(ValueError, match="names no tiers"):
            small_sdm_config(tiers=None)

    def test_single_tier_spec_and_non_iterable_rejected_clearly(self):
        from repro.hierarchy import TierSpec, parse_tiers
        from repro.storage.spec import Technology

        with pytest.raises(ValueError, match="ordered list"):
            parse_tiers(TierSpec(technology=Technology.DRAM, capacity_bytes=0))
        with pytest.raises(ValueError, match="comma string"):
            parse_tiers(42)


class TestVectorisedDecodeParity:
    """The batched decode path is exactly the per-row reference (satellite)."""

    @pytest.mark.parametrize("bits", [8, 4])
    def test_quantized_batch_equals_per_row(self, bits):
        rng = np.random.default_rng(3)
        dim = 24
        values = rng.normal(0, 0.3, size=(64, dim)).astype(np.float32)
        rows = quantize_rows(values, bits=bits)
        batch = dequantize_rows(rows, dim, bits)
        for index in range(rows.shape[0]):
            single = dequantize_rows(rows[index][None, :], dim, bits)[0]
            np.testing.assert_array_equal(batch[index], single)


class TestSpecTierPaths:
    def test_tiers_alias_rewrites_to_backend_options(self):
        spec = ScenarioSpec(
            backend=BackendChoice(
                name="tiered",
                options={"tiers": [{"technology": "dram", "capacity": 0},
                                   {"technology": "nand", "capacity": "1GiB"}]},
            )
        )
        replaced = spec.replace("tiers.1.capacity", "2GiB")
        assert replaced.backend.options["tiers"][1]["capacity"] == "2GiB"
        # untouched entries and the original spec are unchanged
        assert replaced.backend.options["tiers"][0] == {"technology": "dram", "capacity": 0}
        assert spec.backend.options["tiers"][1]["capacity"] == "1GiB"

    def test_string_form_tiers_are_sweepable(self):
        # The README quickstart stores tiers as a compact string; positional
        # paths must normalise it instead of failing to descend.
        spec = ScenarioSpec(
            backend=BackendChoice(
                name="tiered",
                options={"tiers": "dram:64KiB,cxl:1MiB:64KiB,nand:1GiB"},
            )
        )
        replaced = spec.replace("tiers.1.capacity", "256KiB")
        tiers = replaced.backend.options["tiers"]
        assert isinstance(tiers, list)
        assert tiers[1]["capacity"] == "256KiB"
        assert tiers[2]["technology"] == "pcie_nand_flash"
        Session(replaced).backend  # builds cleanly

    def test_nested_path_errors_are_clear(self):
        spec = ScenarioSpec()
        with pytest.raises(ValueError, match="not set on the spec"):
            spec.replace("tiers.1.capacity", "2GiB")
        spec = spec.replace("backend.options.tiers", [{"technology": "dram"}])
        with pytest.raises(ValueError, match="out of range"):
            spec.replace("tiers.7.capacity", "2GiB")
        with pytest.raises(ValueError, match="list index"):
            spec.replace("tiers.first.capacity", "2GiB")

    def test_tier_spec_round_trips_through_json(self):
        spec = ScenarioSpec(
            backend=BackendChoice(
                name="tiered",
                options={"tiers": [{"technology": "dram", "capacity": "8KiB"},
                                   {"technology": "nand", "capacity": "64MiB"}]},
            )
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()
