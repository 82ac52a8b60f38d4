"""Bit-exact parity between the scalar and batched serve cores.

``serve_mode="batched"`` is an execution strategy, not a model change:
for every supported configuration the batched tier-chain gather must
produce bitwise-identical pooled embeddings, identical completion
times, and identical statistics (SDM counters, per-tier serving stats,
row-cache counters *and* eviction order) to the scalar per-row walk.
This is the oracle that lets the scalar path act as a safety net — any
configuration the batched path cannot serve identically must fall back,
never diverge.
"""

import numpy as np
import pytest

from repro.api import ScenarioSpec, Session
from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.core.config import AccessPathKind
from repro.dlrm import DLRMModel, EmbeddingTable, EmbeddingTableSpec, MLP
from repro.dlrm.pruning import prune_table
from repro.storage import IOEngineConfig
from repro.workload import QueryGenerator, WorkloadConfig

NUM_QUERIES = 40

# Configuration axes the batched gather must cover (or detect and fall
# back from): quantisation width, pruning (with and without depruning),
# access path, tier count, promotion policy, row splitting, cache
# partitioning, a second cached tier whose hits are promoted mid-walk,
# a cache small enough to force evictions mid-stream,
# queue-depth limits tight enough to throttle mid-batch, and the
# full-block (no sub-block SGL) transfer path with its memcpy accounting.
TWO_CACHES = "dram:2KiB:2KiB,cxl:4KiB:3KiB,nand:1GiB"

VARIANTS = {
    "default": {},
    "pooled-off": {"pooled_cache_enabled": False},
    "quant-4bit": {"quant_bits": 4},
    "pruned": {"pruned_fraction": 0.3},
    "pruned-deprune": {"pruned_fraction": 0.3, "deprune_at_load": True},
    "dequantize-at-load": {"dequantize_at_load": True},
    "mmap": {"access_path": AccessPathKind.MMAP},
    "three-tier": {"tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB"},
    "three-tier-promote-none": {
        "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB",
        "promotion": "none",
    },
    "three-tier-promote-top": {
        "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB",
        "promotion": "top",
    },
    "split-rows": {"split_rows": True, "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB"},
    # Two cached tiers with rows homed on nand, so both caches are walked
    # and a hit in the cxl cache is promoted into the dram cache mid-walk
    # (the ordered probe-with-promotion batch operation).  Under "top" the
    # cxl cache is probed but never filled.
    "two-caches-promote-all": {"tiers": TWO_CACHES, "promotion": "all"},
    "two-caches-promote-top": {"tiers": TWO_CACHES, "promotion": "top"},
    "two-caches-split-rows": {"tiers": TWO_CACHES, "promotion": "all", "split_rows": True},
    "two-caches-pooled-off": {
        "tiers": TWO_CACHES,
        "promotion": "all",
        "pooled_cache_enabled": False,
    },
    # A tier-0 cache of a dozen rows: promotion fills evict rows the same
    # batch hits, so real hazards occur and the scalar fallback is taken.
    "two-caches-hazards": {
        "tiers": "dram:2KiB:512,cxl:4KiB:3KiB,nand:1GiB",
        "promotion": "all",
    },
    "two-caches-four-partitions": {
        "tiers": TWO_CACHES,
        "promotion": "all",
        "num_cache_partitions": 4,
    },
    "four-partitions": {"num_cache_partitions": 4},
    "tiny-cache": {"row_cache_capacity_bytes": 4 * 1024},
    "throttled-io": {
        "row_cache_capacity_bytes": 4 * 1024,
        "io": IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2),
    },
    "full-block-io": {
        "row_cache_capacity_bytes": 4 * 1024,
        "io": IOEngineConfig(sub_block_reads=False),
    },
}


def _model(quant_bits: int = 8) -> DLRMModel:
    specs = [
        EmbeddingTableSpec(
            name="user_0",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=True,
            avg_pooling_factor=6.0,
            zipf_alpha=1.05,
        ),
        EmbeddingTableSpec(
            name="user_1",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=True,
            avg_pooling_factor=6.0,
            zipf_alpha=1.05,
        ),
        EmbeddingTableSpec(
            name="item_0",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=False,
            avg_pooling_factor=3.0,
            zipf_alpha=1.2,
        ),
    ]
    tables = {spec.name: EmbeddingTable.random(spec, seed=0) for spec in specs}
    total_dim = sum(spec.dim for spec in specs)
    return DLRMModel(
        name="parity-model",
        bottom_mlp=MLP([4, 16, 8], seed=0, name="parity/bottom"),
        top_mlp=MLP([8 + total_dim, 16, 1], seed=0, name="parity/top"),
        tables=tables,
        dense_dim=4,
        item_batch=1,
    )


def _build_sdm(variant: dict, serve_mode: str) -> SoftwareDefinedMemory:
    options = dict(variant)
    quant_bits = options.pop("quant_bits", 8)
    pruned_fraction = options.pop("pruned_fraction", 0.0)
    model = _model(quant_bits)
    pruned = None
    if pruned_fraction:
        pruned = {
            "user_0": prune_table(model.table("user_0"), pruned_fraction, seed=1)
        }
    config = SDMConfig(
        row_cache_capacity_bytes=options.pop("row_cache_capacity_bytes", 256 * 1024),
        pooled_cache_capacity_bytes=128 * 1024,
        num_devices=2,
        seed=0,
        serve_mode=serve_mode,
        **options,
    )
    return SoftwareDefinedMemory(model, config, pruned_tables=pruned)


def _serve(sdm: SoftwareDefinedMemory):
    generator = QueryGenerator(
        sdm.model, WorkloadConfig(item_batch=1, num_users=100), seed=3
    )
    trace = []
    cursor = 0.0
    for query in generator.generate(NUM_QUERIES):
        pooled, done = sdm.pooled_embeddings(query.user_indices, cursor)
        sdm.on_query_complete()
        trace.append(
            (
                {name: vec.tobytes() for name, vec in sorted(pooled.items())},
                done,
            )
        )
        cursor = done + 1e-4
    return trace


def _cache_snapshot(sdm: SoftwareDefinedMemory):
    snapshot = []
    for tier in sdm.tiers:
        if tier.cache is None:
            snapshot.append(None)
            continue
        orders = []
        for partition in list(tier.cache._memory_caches) + list(tier.cache._cpu_caches):
            orders.append(list(partition.keys()))
        snapshot.append(
            (
                tier.cache.stats,
                tier.cache.memory_optimized_stats,
                tier.cache.cpu_optimized_stats,
                orders,
            )
        )
    return snapshot


# Variants that must take the fallback (and still match), with the reason.
EXPECTED_FALLBACKS = {
    "two-caches-hazards": "promotion_evicts_batch_hit",
    "two-caches-pooled-off": "promotion_evicts_batch_hit",
    "two-caches-four-partitions": "cache_not_batchable",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batched_serve_is_bit_identical_to_scalar(variant):
    scalar = _build_sdm(VARIANTS[variant], "scalar")
    batched = _build_sdm(VARIANTS[variant], "batched")
    scalar_trace = _serve(scalar)
    batched_trace = _serve(batched)
    for (rows_a, done_a), (rows_b, done_b) in zip(scalar_trace, batched_trace):
        assert rows_a == rows_b  # bitwise embedding equality
        assert done_a == done_b  # exact completion-time equality
    assert scalar.stats == batched.stats
    for tier_a, tier_b in zip(scalar.tiers, batched.tiers):
        assert tier_a.stats == tier_b.stats
    assert _cache_snapshot(scalar) == _cache_snapshot(batched)
    if scalar.pooled_cache is not None:
        assert batched.pooled_cache is not None
        assert scalar.pooled_cache.stats == batched.pooled_cache.stats
    by_reason = batched.stats.batch_fallbacks_by_reason
    assert sum(by_reason.values()) == batched.stats.batch_fallbacks
    expected = EXPECTED_FALLBACKS.get(variant)
    assert set(by_reason) == ({expected} if expected else set())
    if variant.startswith("two-caches") and "top" not in variant:
        # Not vacuous: the slower cache hit, its rows were promoted, and
        # most requests still took the batched path.
        assert batched.tiers[1].stats.cache_hits > 0
        assert batched.stats.batched_serves > batched.stats.batch_fallbacks


def test_repeated_promoted_row_falls_back_and_matches():
    # A row that sits in the cxl cache only, requested twice in one batch:
    # the scalar walk promotes it on the first occurrence and finds it in
    # the dram cache on the second, which no one-shot plan reproduces.
    variant = VARIANTS["two-caches-promote-all"]
    scalar, batched = _build_sdm(variant, "scalar"), _build_sdm(variant, "batched")
    assert _serve(scalar) == _serve(batched)
    state = batched._sm_tables["user_0"]
    lower_only = [
        row
        for row in range(state.stored_rows)
        if batched.tiers[1].cache.contains(("user_0", row))
        and not batched.tiers[0].cache.contains(("user_0", row))
    ]
    assert len(lower_only) >= 2
    request = {"user_0": [lower_only[0], lower_only[1], lower_only[0]]}
    served = [sdm.pooled_embeddings(request, 1.0) for sdm in (scalar, batched)]
    assert served[0][0]["user_0"].tobytes() == served[1][0]["user_0"].tobytes()
    assert served[0][1] == served[1][1]
    assert batched.stats.batch_fallbacks_by_reason == {"promoted_key_repeats": 1}
    assert scalar.stats == batched.stats
    for tier_a, tier_b in zip(scalar.tiers, batched.tiers):
        assert tier_a.stats == tier_b.stats
    assert _cache_snapshot(scalar) == _cache_snapshot(batched)


def test_fetch_batch_reports_no_size_hint():
    sdm = _build_sdm({}, "batched")
    rows = np.arange(4, dtype=np.int64)
    assert sdm.chain.fetch_batch("user_0", rows, rows, 0.0) is None
    assert sdm.chain.decline_reason == "no_size_hint"
    size_hint = sdm._sm_tables["user_0"].row_bytes
    assert sdm.chain.fetch_batch("user_0", rows, rows, 0.0, size_hint=size_hint) is not None
    assert sdm.chain.decline_reason is None


def test_batched_mode_actually_takes_the_batched_path():
    # Guard against the parity matrix passing vacuously because every
    # variant silently fell back to the scalar walk.
    sdm = _build_sdm({}, "batched")
    outcome = sdm.chain.fetch_batch(
        "user_0",
        np.arange(4, dtype=np.int64),
        np.array([1, 2, 3, 4], dtype=np.int64),
        0.0,
        cache_enabled=True,
        size_hint=sdm._sm_tables["user_0"].row_bytes,
    )
    assert outcome is not None
    assert outcome.rows.shape[0] == 4


def _served_stats(backend: str, options: dict, passes: int = 1):
    session = Session(
        ScenarioSpec.from_dict(
            {
                "model": {"spec": "M1", "max_tables_per_group": 8, "max_rows_per_table": 16384},
                "backend": {"name": backend, "options": options},
                "workload": {"num_queries": 96, "num_users": 2000},
            }
        )
    )
    for _ in range(passes):
        session.backend.reset_stats()
        session.engine.run_queries(session.queries())
    return session.backend.stats


def test_batch_fallbacks_are_counted():
    # Two tiers, second pass over a row cache that holds everything: no
    # promotion can mutate a tier mid-batch, so nothing falls back.
    warm = _served_stats(
        "sdm", {"row_cache_capacity_bytes": 64 << 20, "pooled_cache_enabled": False}, passes=2
    )
    assert warm.batch_fallbacks == 0
    assert warm.batched_serves == warm.sm_table_requests > 0

    # The perf ledger's tiered-open hierarchy: every served row is promoted,
    # and only the batches with a real hazard (a fill evicting a row the
    # same batch hits) fall back.  Pooled-cache hits return before the
    # serve, so the two counters cover only the requests that reached it.
    tiered = _served_stats(
        "tiered",
        {
            "tiers": "dram:256KiB:512KiB,cxl:2MiB:4MiB,nand:1GiB",
            "split_rows": True,
            "promotion": "all",
            "pooled_cache_enabled": True,
        },
    )
    reached_serve = tiered.sm_table_requests - tiered.pooled_cache_hits
    assert tiered.batched_serves + tiered.batch_fallbacks == reached_serve
    assert tiered.batch_fallbacks / reached_serve < 0.1
    assert sum(tiered.batch_fallbacks_by_reason.values()) == tiered.batch_fallbacks


def test_scalar_mode_counts_neither_serves_nor_fallbacks():
    sdm = _build_sdm({}, "scalar")
    _serve(sdm)
    assert sdm.stats.sm_table_requests > 0
    assert sdm.stats.batched_serves == sdm.stats.batch_fallbacks == 0
