"""Tests for the SoftwareDefinedMemory backend (the paper's core system)."""

import numpy as np
import pytest

from repro.core import AccessPathKind, SoftwareDefinedMemory
from repro.dlrm import ComputeSpec, InferenceEngine, prune_table
from repro.hierarchy import compute_tiered_placement, parse_tiers
from repro.sim.state import CONTENTS, COUNTER, reset
from repro.sim.units import BLOCK_SIZE
from repro.storage import IOEngineConfig, Technology

from helpers import (
    assert_scores_match_dram,
    small_model,
    small_queries,
    small_sdm,
    small_sdm_config,
)


class TestSDMSetup:
    def test_user_tables_loaded_to_sm(self):
        model = small_model(num_user=2, num_item=1)
        sdm = small_sdm(model)
        assert set(sdm.placement.storage_tables()) == {"user_0", "user_1"}
        assert sdm.sm_footprint_bytes() > 0

    def test_item_tables_not_on_sm(self):
        model = small_model()
        sdm = small_sdm(model)
        assert sdm.placement.for_table("item_0").tiers() == (0,)

    def test_fm_footprint_includes_caches(self):
        model = small_model()
        sdm = small_sdm(model)
        assert sdm.fm_footprint_bytes() >= (
            sdm.row_cache.capacity_bytes + sdm.pooled_cache.capacity_bytes
        )

    def test_devices_built_from_config(self):
        sdm = small_sdm(
            small_model(),
            tiers=[
                {"technology": "dram", "capacity": 0},
                {"technology": "optane", "capacity": "1.2TB", "devices": 3},
            ],
        )
        assert len(sdm.devices) == 3
        assert all(d.spec.technology is Technology.OPTANE_SSD for d in sdm.devices)

    def test_unknown_pruned_table_rejected(self):
        model = small_model()
        other = small_model()
        pruned = prune_table(other.table("user_0"), 0.2)
        with pytest.raises(ValueError):
            SoftwareDefinedMemory(
                model,
                small_sdm_config(),
                pruned_tables={"ghost": pruned},
            )

    def test_pruned_table_must_map_the_model_tables_rows(self):
        # A request addresses a pruned table's mapping tensor, bounded by the
        # model table's row count: the two must agree.
        model = small_model(num_rows=256)
        pruned = prune_table(small_model(num_rows=200).table("user_0"), 0.2)
        with pytest.raises(ValueError, match="table 'user_0': the pruned table maps 200 rows"):
            SoftwareDefinedMemory(model, small_sdm_config(), pruned_tables={"user_0": pruned})

    def test_pooled_cache_optional(self):
        sdm = small_sdm(small_model(), pooled_cache_enabled=False)
        assert sdm.pooled_cache is None
        assert sdm.pooled_cache_hit_rate == 0.0


class TestSDMNumericalCorrectness:
    """Serving through SDM carries no values: the scores its engine computes
    equal a DRAM engine's, whatever the serve path did in between."""

    def test_pooled_embeddings_match_dram_reference(self):
        """The headline invariant: serving from SM + cache scores exactly as
        serving from DRAM."""
        model = small_model()
        assert_scores_match_dram(model, small_sdm(model), small_queries(model, 10))

    def test_correctness_preserved_across_repeated_queries(self):
        """Cache hits (row cache and pooled cache) must not change results."""
        model = small_model()
        sdm = small_sdm(model)
        query = small_queries(model, 1)[0]
        assert_scores_match_dram(model, sdm, [query, query])
        assert sdm.pooled_cache.stats.hits > 0

    def test_correctness_with_mmap_access_path(self):
        model = small_model()
        sdm = small_sdm(model, access_path=AccessPathKind.MMAP)
        assert_scores_match_dram(model, sdm, small_queries(model, 1))

    def test_correctness_with_dequantize_at_load(self):
        model = small_model()
        sdm = small_sdm(model, dequantize_at_load=True)
        assert_scores_match_dram(model, sdm, small_queries(model, 1))

    def test_correctness_without_sub_block_reads(self):
        model = small_model()
        sdm = small_sdm(model, io=IOEngineConfig(sub_block_reads=False))
        assert_scores_match_dram(model, sdm, small_queries(model, 1))

    def test_fm_direct_tables_served_from_model(self):
        model = small_model()
        sdm = small_sdm(
            model,
            tiers=[
                {"technology": "dram", "capacity": model.table("user_0").size_bytes},
                {"technology": "nand", "capacity": "4TB", "devices": 2},
            ],
        )
        assert sdm.placement.for_table("user_0").tiers() == (0,)
        assert "user_0" not in sdm._sm_tables
        done = sdm.serve({"user_0": [1, 2, 3]}, 0.0)
        assert done == sdm.compute.embedding_read_time(3, model.table("user_0").spec.row_bytes)
        assert sdm.stats.fm_direct_lookups == 3
        with pytest.raises(IndexError):  # the model's table checks the rows
            sdm.serve({"user_0": [model.table("user_0").spec.num_rows]}, 0.0)


class TestSDMPrunedTables:
    def _pruned_setup(self, deprune):
        model = small_model()
        pruned = {"user_0": prune_table(model.table("user_0"), 0.3, seed=1)}
        sdm = SoftwareDefinedMemory(
            model,
            small_sdm_config(deprune_at_load=deprune),
            pruned_tables=pruned,
        )
        return model, pruned, sdm

    def _assert_values_are_the_pruned_tables(self, model, pruned, sdm):
        # The values plane pools a pruned table through the backend's
        # pruned table: a pruned row pools as zero.
        indices = [0, 3, 17, 42, 100, 200]
        sdm.serve({"user_0": indices}, 0.0)
        pooled = InferenceEngine(model, ComputeSpec(), sdm).user_pooled({"user_0": indices})
        np.testing.assert_array_equal(pooled["user_0"], pruned["user_0"].bag(indices))
        assert not np.array_equal(pooled["user_0"], model.table("user_0").bag(indices))

    def test_pruned_serving_matches_pruned_reference(self):
        self._assert_values_are_the_pruned_tables(*self._pruned_setup(deprune=False))

    def test_depruned_serving_matches_pruned_reference(self):
        self._assert_values_are_the_pruned_tables(*self._pruned_setup(deprune=True))

    def test_mapping_tensor_consumes_fm_only_without_depruning(self):
        _, pruned, with_mapping = self._pruned_setup(deprune=False)
        _, _, depruned = self._pruned_setup(deprune=True)
        difference = with_mapping.fm_footprint_bytes() - depruned.fm_footprint_bytes()
        assert difference == pruned["user_0"].mapping_tensor_bytes

    def test_depruning_grows_sm_footprint(self):
        _, _, with_mapping = self._pruned_setup(deprune=False)
        _, _, depruned = self._pruned_setup(deprune=True)
        assert depruned.sm_footprint_bytes() >= with_mapping.sm_footprint_bytes()

    def test_pruned_rows_skipped_counted(self):
        model, pruned, sdm = self._pruned_setup(deprune=False)
        mapping = pruned["user_0"].mapping
        pruned_index = int(np.nonzero(mapping == -1)[0][0])
        sdm.serve({"user_0": [pruned_index]}, 0.0)
        assert sdm.stats.pruned_rows_skipped == 1


class TestSDMTimingAndStats:
    def test_misses_cost_more_time_than_hits(self):
        model = small_model()
        sdm = small_sdm(model, pooled_cache_enabled=False)
        query = small_queries(model, 1)[0]
        cold_done = sdm.serve(query.user_indices, 0.0)
        warm_done = sdm.serve(query.user_indices, 0.0)
        assert warm_done < cold_done

    def test_pooled_cache_hit_is_fastest(self):
        model = small_model()
        sdm = small_sdm(model)
        query = small_queries(model, 1)[0]
        sdm.serve(query.user_indices, 0.0)
        pooled_hit_done = sdm.serve(query.user_indices, 0.0)
        assert sdm.pooled_cache.stats.hits > 0
        assert pooled_hit_done < 1e-4

    def test_row_cache_hit_rate_rises_with_repeated_serving(self):
        model = small_model()
        sdm = small_sdm(model, pooled_cache_enabled=False)
        queries = small_queries(model, 50)
        for query in queries:
            sdm.serve(query.user_indices, 0.0)
        assert sdm.row_cache_hit_rate > 0.2
        assert sdm.stats.sm_ios < sdm.stats.sm_row_lookups

    def test_inter_op_parallelism_reduces_completion_time(self):
        model = small_model(num_user=4)
        query = small_queries(model, 1)[0]
        parallel = small_sdm(small_model(num_user=4), inter_op_parallelism=True)
        serial = small_sdm(small_model(num_user=4), inter_op_parallelism=False)
        parallel_done = parallel.serve(query.user_indices, 0.0)
        serial_done = serial.serve(query.user_indices, 0.0)
        assert parallel_done < serial_done

    def test_queries_counted_via_on_query_complete(self):
        sdm = small_sdm()
        sdm.on_query_complete()
        sdm.on_query_complete()
        assert sdm.stats.queries == 2

    def test_reset_and_clear(self):
        model = small_model()
        sdm = small_sdm(model)
        query = small_queries(model, 1)[0]
        sdm.serve(query.user_indices, 0.0)
        reset(sdm, {CONTENTS, COUNTER})
        assert sdm.stats.sm_row_lookups == 0
        assert sdm.row_cache.item_count == 0

    def test_device_stats_aggregate(self):
        model = small_model()
        sdm = small_sdm(model)
        query = small_queries(model, 1)[0]
        sdm.serve(query.user_indices, 0.0)
        stats = sdm.device_stats()
        assert stats.reads > 0

    def test_empty_request_dict_returns_immediately(self):
        sdm = small_sdm()
        assert sdm.serve({}, 5.0) == 5.0

    def test_empty_indices_rejected(self):
        sdm = small_sdm()
        for empty in ([], np.empty(0, dtype=np.int64)):
            with pytest.raises(ValueError, match="request has no indices"):
                sdm.serve({"user_0": empty}, 0.0)

    @pytest.mark.parametrize("backend_name", ["sdm", "tiered", "dram"])
    def test_row_zero_alone_is_a_lookup(self, backend_name):
        # Query indices are int64 arrays, and `not np.array([0])` is True:
        # a truthiness check would reject this one-row request as empty (and
        # a longer array as ambiguous).
        from repro.api import create_backend

        model = small_model()
        backend = create_backend(backend_name, model)
        for indices in (np.array([0]), np.array([0, 5, 1])):
            requests = {name: indices for name in ("user_0", "user_1")}
            assert backend.serve(requests, 0.0) > 0.0

    def test_cache_disabled_tables_always_do_io(self):
        model = small_model()
        sdm = small_sdm(
            model,
            cache_disable_alpha_threshold=2.0,  # disable caching for every table
            pooled_cache_enabled=False,
        )
        query = small_queries(model, 1)[0]
        sdm.serve(query.user_indices, 0.0)
        sdm.serve(query.user_indices, 0.0)
        assert sdm.row_cache.stats.lookups == 0
        assert sdm.stats.sm_ios == 2 * sum(len(v) for v in query.user_indices.values())


class TestSDMLoadPath:
    """The table load lays every stored row out and counts one whole-block
    write per block of each extent."""

    def _assert_blocks_match_per_row_load(self, sdm, model, pruned_tables=None):
        checked_partial_block = False
        for tier in sdm.device_tiers:
            for name, segments in tier._segments.items():
                row_bytes = sdm._sm_tables[name].row_bytes
                for segment in segments:
                    extent = tier.layout.extent(segment.key)
                    assert extent.num_rows == segment.end - segment.start
                    assert extent.row_bytes == row_bytes
                    assert extent.rows_per_block == BLOCK_SIZE // row_bytes
                    assert extent.num_blocks == -(-extent.num_rows // extent.rows_per_block)
                    checked_partial_block |= extent.num_rows % extent.rows_per_block != 0
            written = sum(tier.layout.extent(s.key).num_blocks for ss in tier._segments.values() for s in ss)
            assert tier.device_stats().writes == written
            assert tier.device_stats().bytes_written == written * BLOCK_SIZE
        assert checked_partial_block, "no segment ended in a partly filled block"

    def test_plain_tables(self):
        model = small_model(num_rows=250)
        self._assert_blocks_match_per_row_load(small_sdm(model), model)

    def test_rank_ordered_row_split(self):
        model = small_model(num_user=2, num_item=1, num_rows=250)
        tiers = "dram:2KiB,cxl:6KiB,nand:64MiB"
        ranking = np.random.default_rng(3).permutation(250)
        placement = compute_tiered_placement(
            model.table_specs,
            parse_tiers(tiers),
            granularity="rows",
            row_hotness={"user_0": ranking, "user_1": ranking[::-1]},
        )
        sdm = SoftwareDefinedMemory(
            model, small_sdm_config(tiers=tiers, split_rows=True), placement=placement
        )
        ranked = [
            name
            for name in sdm._sm_tables
            if sdm.placement.for_table(name).rank_order is not None
        ]
        assert ranked, "expected a hotness-ranked split table"
        self._assert_blocks_match_per_row_load(sdm, model)
        # A ranked table stores row rank_order[i] at stored index i, through
        # an FM mapping tensor that inverts the ranking.
        for name in ranked:
            state, rank_order = sdm._sm_tables[name], sdm.placement.for_table(name).rank_order
            assert np.array_equal(state.mapping[rank_order], np.arange(state.stored_rows))
            assert state.mapping_fm_bytes == 4 * state.stored_rows

    @pytest.mark.parametrize("deprune", [False, True])
    def test_pruned_tables(self, deprune):
        model = small_model(num_rows=250)
        pruned = {"user_0": prune_table(model.table("user_0"), 0.3, seed=1)}
        sdm = SoftwareDefinedMemory(
            model, small_sdm_config(deprune_at_load=deprune), pruned_tables=pruned
        )
        assert sdm._sm_tables["user_0"].stored_rows == (250 if deprune else 175)
        self._assert_blocks_match_per_row_load(sdm, model, pruned)

    def test_dequantize_at_load(self):
        model = small_model(num_rows=250)
        sdm = small_sdm(model, dequantize_at_load=True)
        assert sdm._sm_tables["user_0"].row_bytes == 4 * 16
        self._assert_blocks_match_per_row_load(sdm, model)


def _mapped_sdm(kind):
    """An SDM whose ``user_0`` is served from stored rows through a mapping
    tensor (``pruned``, ``ranked``) or under its own indices (``plain``).
    The pooled cache is off, so every request reaches the table's rows."""
    model = small_model(num_user=2, num_item=1, num_rows=250)
    if kind == "pruned":
        pruned = {"user_0": prune_table(model.table("user_0"), 0.3, seed=1)}
        return SoftwareDefinedMemory(
            model, small_sdm_config(pooled_cache_enabled=False), pruned_tables=pruned
        )
    if kind == "ranked":
        tiers = "dram:2KiB,cxl:6KiB,nand:64MiB"
        ranking = np.random.default_rng(3).permutation(250)
        placement = compute_tiered_placement(
            model.table_specs,
            parse_tiers(tiers),
            granularity="rows",
            row_hotness={"user_0": ranking},
        )
        return SoftwareDefinedMemory(
            model,
            small_sdm_config(tiers=tiers, split_rows=True, pooled_cache_enabled=False),
            placement=placement,
        )
    return small_sdm(model, pooled_cache_enabled=False)


class TestOutOfRangeIndices:
    @pytest.mark.parametrize("kind", ["plain", "pruned", "ranked"])
    @pytest.mark.parametrize("index", [-1, 250])
    def test_index_outside_the_table_is_rejected(self, kind, index):
        # A mapping-tensor gather would wrap -1 onto the table's last row.
        sdm = _mapped_sdm(kind)
        assert (sdm._sm_tables["user_0"].mapping is not None) == (kind != "plain")
        with pytest.raises(IndexError, match="out of range"):
            sdm.serve({"user_0": np.array([index, 3])}, 0.0)
        assert sdm.stats.sm_ios == 0
        assert sdm.serve({"user_0": np.array([249, 3])}, 0.0) > 0.0


class TestRejectedRequest:
    @staticmethod
    def _stats(sdm):
        """Every SDM, pooled-cache, tier, row-cache and IO counter, the row
        cache's keys in recency order and the devices' counters."""
        pooled = None if sdm.pooled_cache is None else repr(sdm.pooled_cache.stats)
        keys = [list(lru.keys()) for lru in (sdm.row_cache._memory_cache, sdm.row_cache._cpu_cache)]
        return repr(sdm.stats), pooled, sdm.telemetry_counters(), keys, repr(sdm.device_stats())

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("index", [-1, 250])
    def test_out_of_range_request_is_an_index_error_that_moves_nothing(self, pooled, index):
        sdm = small_sdm(small_model(num_rows=250), pooled_cache_enabled=pooled)
        sdm.serve({"user_0": np.array([7, 3, 5])}, 0.0)
        before = self._stats(sdm)
        with pytest.raises(IndexError, match="out of range for table 'user_0'"):
            sdm.serve({"user_0": np.array([index, 3, 5])}, 1.0)
        assert self._stats(sdm) == before
        # Not vacuous: the same request in range moves the counters,
        # the pooled cache's among them.
        sdm.serve({"user_0": np.array([249, 3, 5])}, 1.0)
        assert self._stats(sdm)[0] != before[0]
        if pooled:
            assert self._stats(sdm)[1] != before[1]

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([-1]), IndexError),
            (np.array([250, 3]), IndexError),
            (np.empty(0, dtype=np.int64), ValueError),
            ([1.7, 2.2], TypeError),  # would truncate to rows 1 and 2
            ([True, False], TypeError),  # would read rows 1 and 0
        ],
    )
    def test_a_rejected_table_anywhere_in_the_query_moves_nothing(
        self, pooled, position, bad, error
    ):
        sdm = small_sdm(small_model(num_user=3, num_rows=250), pooled_cache_enabled=pooled)
        sdm.serve({f"user_{t}": np.array([7, 3, 5]) for t in range(3)}, 0.0)
        before = self._stats(sdm)
        # Rows no earlier query read: serving any table would move its
        # devices and fill the row cache.
        query = {f"user_{t}": np.arange(20, 40) + 50 * t for t in range(3)}
        bad_name = f"user_{position}"
        with pytest.raises(error, match=f"table '{bad_name}'"):
            sdm.serve(dict(query, **{bad_name: bad}), 1.0)
        assert self._stats(sdm) == before
        sdm.serve(query, 1.0)  # not vacuous: in range, the query moves all three
        after = self._stats(sdm)
        assert all(after[part] != before[part] for part in (0, 3, 4))

    @pytest.mark.parametrize("pooled", [True, False])
    def test_a_rejected_fm_pinned_table_moves_nothing(self, pooled):
        sdm = small_sdm(
            small_model(num_rows=250), pooled_cache_enabled=pooled, pinned_fm_tables=("user_1",)
        )
        assert "user_0" in sdm._sm_tables and "user_1" not in sdm._sm_tables
        before = self._stats(sdm)
        with pytest.raises(IndexError, match="out of range for table 'user_1'"):
            sdm.serve({"user_0": np.array([5, 6]), "user_1": np.array([999])}, 0.0)
        assert self._stats(sdm) == before

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_an_unknown_table_is_a_key_error_that_moves_nothing(self, position):
        sdm = small_sdm(small_model(num_user=2, num_rows=250))
        query = {"user_0": np.array([5, 6]), "user_1": np.array([8])}
        names = list(query)
        names.insert(position, "ghost")
        before = self._stats(sdm)
        with pytest.raises(KeyError, match="ghost"):
            sdm.serve({name: query.get(name, np.array([1])) for name in names}, 0.0)
        assert self._stats(sdm) == before
