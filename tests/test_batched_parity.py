"""The serve path reproduces the frozen per-row oracle bit for bit.

The repo used to carry a scalar per-row walk beside the array-native one
and compared the two live.  The scalar walk is gone; what it produced for
every configuration below was frozen, at the last commit that had it, into
``tests/golden/serve_parity.json`` (per-query completion times, a digest
of the pooled bytes, every statistics object, row-cache eviction order,
IO-engine, device and page-cache counters).  The serve path carries no
values, so the pooled bytes are those of the values plane
(:meth:`InferenceEngine.user_pooled`, what scores are computed from).  The single path must equal
those records exactly, and must also equal ``tests/reference_walk.py`` — a
plain per-row statement of the same semantics — run live on a twin.
``tests/golden/regen.py`` rewrites the goldens from the current tree; a
diff there is a model change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import fetch_rows, golden_encode, small_sdm_config
from reference_walk import reference_fetch_batch

from repro.cache.unified import UnifiedRowCache
from repro.core import SoftwareDefinedMemory
from repro.core.config import AccessPathKind
from repro.dlrm import MLP, DLRMModel, EmbeddingTable, EmbeddingTableSpec, InferenceEngine
from repro.dlrm.pruning import prune_table
from repro.hierarchy import DeviceTier, TierChain
from repro.storage import IOEngineConfig, MmapReader
from repro.workload import QueryGenerator, WorkloadConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_parity.json"
NUM_QUERIES = 40

# Configuration axes the serve path must cover: quantisation width, pruning
# (with and without depruning), access path, tier count, promotion policy,
# row splitting, a second cached tier whose hits are
# promoted mid-walk, caches small enough to force evictions (and promotion
# hazards) mid-batch, a cache too small to ever hold a row, queue-depth
# limits tight enough to throttle mid-batch, and the full-block (no
# sub-block SGL) transfer path with its memcpy accounting.
TWO_CACHES = "dram:2KiB:2KiB,cxl:4KiB:3KiB,nand:1GiB"
THROTTLED = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2)

VARIANTS = {
    "default": {},
    "pooled-off": {"pooled_cache_enabled": False},
    # Tables one after another: each table's walk starts when the previous
    # table's rows are pooled, so the cursor chains through the query.
    "serial-tables": {"inter_op_parallelism": False, "pooled_cache_enabled": False},
    # Four small user tables behind a cache that holds them all: late
    # queries hit in every table, others hit in a few tables and then miss
    # in one that fills the cache.
    "warm-pooled-off": {"pooled_cache_enabled": False, "user_tables": 4, "user_rows": 64},
    "quant-4bit": {"quant_bits": 4},
    "pruned": {"pruned_fraction": 0.3},
    "pruned-deprune": {"pruned_fraction": 0.3, "deprune_at_load": True},
    "dequantize-at-load": {"dequantize_at_load": True},
    "mmap": {"access_path": AccessPathKind.MMAP},
    "mmap-throttled": {
        "access_path": AccessPathKind.MMAP,
        "row_cache_capacity_bytes": 4 * 1024,
        "io": THROTTLED,
    },
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
    "two-caches-mmap": {
        "tiers": TWO_CACHES,
        "promotion": "all",
        "access_path": AccessPathKind.MMAP,
    },
    # A tier-0 cache of a dozen rows: promotion fills evict rows the same
    # batch hits, so the walk has to split those batches.
    "two-caches-hazards": {
        "tiers": "dram:2KiB:512,cxl:4KiB:3KiB,nand:1GiB",
        "promotion": "all",
    },
    # A tier-0 cache no row fits in: every promotion into it is rejected.
    "two-caches-oversize-row": {
        "tiers": "dram:2KiB:40,cxl:4KiB:3KiB,nand:1GiB",
        "promotion": "all",
    },
    "tiny-cache": {"row_cache_capacity_bytes": 4 * 1024},
    "throttled-io": {"row_cache_capacity_bytes": 4 * 1024, "io": THROTTLED},
    "full-block-io": {
        "row_cache_capacity_bytes": 4 * 1024,
        "io": IOEngineConfig(sub_block_reads=False),
    },
}

# Variants whose batches hit promotion hazards, i.e. exercise range splitting.
SPLITTING_VARIANTS = ("two-caches-hazards", "two-caches-pooled-off")


def _model(quant_bits: int = 8, user_tables: int = 2, user_rows: int = 256) -> DLRMModel:
    specs = [
        EmbeddingTableSpec(
            name=f"user_{index}",
            num_rows=user_rows,
            dim=16,
            quant_bits=quant_bits,
            is_user=True,
            avg_pooling_factor=6.0,
            zipf_alpha=1.05,
        )
        for index in range(user_tables)
    ]
    specs.append(
        EmbeddingTableSpec(
            name="item_0",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=False,
            avg_pooling_factor=3.0,
            zipf_alpha=1.2,
        )
    )
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


def build_sdm(variant: dict) -> SoftwareDefinedMemory:
    options = dict(variant)
    quant_bits = options.pop("quant_bits", 8)
    pruned_fraction = options.pop("pruned_fraction", 0.0)
    model = _model(
        quant_bits, options.pop("user_tables", 2), options.pop("user_rows", 256)
    )
    pruned = None
    if pruned_fraction:
        pruned = {"user_0": prune_table(model.table("user_0"), pruned_fraction, seed=1)}
    return SoftwareDefinedMemory(model, small_sdm_config(**options), pruned_tables=pruned)


def build_reference_sdm(variant: dict) -> SoftwareDefinedMemory:
    """A twin that serves every table on its own, through the per-row
    reference walk: no run probe touches its caches, and each table's
    fetch walks them when the table's turn comes."""
    sdm = build_sdm(variant)
    chain = sdm.chain

    def fetch_one_table(plan, start_time):
        return reference_fetch_batch(
            chain,
            plan.table_name,
            plan.stored,
            start_time,
            row_len=plan.row_len,
            cache_enabled=plan.cache_enabled,
        )

    chain.probe_run = lambda plans: None
    chain.fetch_batch = fetch_one_table
    return sdm


def serve(sdm: SoftwareDefinedMemory, after_query=None):
    """``[(pooled bytes by table, completion time)]`` of the query stream."""
    generator = QueryGenerator(sdm.model, WorkloadConfig(item_batch=1, num_users=100), seed=3)
    values = InferenceEngine(sdm.model, sdm.compute, sdm)
    trace = []
    cursor = 0.0
    for query in generator.generate(NUM_QUERIES):
        done = sdm.serve(query.user_indices, cursor)
        sdm.on_query_complete()
        pooled = values.user_pooled(query.user_indices)
        trace.append(({name: vec.tobytes() for name, vec in sorted(pooled.items())}, done))
        cursor = done + 1e-4
        if after_query is not None:
            after_query(sdm)
    return trace


def row_names(sdm: SoftwareDefinedMemory) -> dict:
    """Every cache key of the chain -> its ``(table, stored)``, decoded
    through ``TierChain.row_keys``."""
    names = {}
    for table_name, decision in sdm.placement.decisions.items():
        stored = np.arange(decision.num_rows)
        keys = sdm.chain.row_keys(table_name, stored).tolist()
        names.update(zip(keys, ((table_name, row) for row in stored.tolist())))
    return names


def parity_record(sdm: SoftwareDefinedMemory, trace) -> dict:
    """Everything observable about one served stream, as JSON data."""
    digest = hashlib.sha256()
    for pooled, _ in trace:
        for name, raw in pooled.items():
            digest.update(name.encode())
            digest.update(raw)
    names = row_names(sdm)
    caches = []
    for tier in sdm.tiers:
        if tier.cache is None:
            caches.append(None)
            continue
        caches.append(
            [
                {"stats": cache.stats, "lru_to_mru": [names[key] for key in cache.keys()]}
                for cache in (tier.cache._memory_cache, tier.cache._cpu_cache)
            ]
        )
    device_tiers = [tier for tier in sdm.tiers if isinstance(tier, DeviceTier)]
    return golden_encode(
        {
            "completion_times": [done for _, done in trace],
            "pooled_sha256": digest.hexdigest(),
            "sdm_stats": sdm.stats,
            "tier_stats": [tier.stats for tier in sdm.tiers],
            "row_caches": caches,
            "pooled_cache_stats": None if sdm.pooled_cache is None else sdm.pooled_cache.stats,
            "io_engine_stats": [tier.io_engine.stats for tier in device_tiers],
            "device_stats": sdm.device_stats(),
            "mmap_pages": [
                {"faults": tier.access_path.page_faults, "hits": tier.access_path.page_hits}
                for tier in device_tiers
                if isinstance(tier.access_path, MmapReader)
            ],
        }
    )


def golden_records() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_exactly_the_variants():
    assert sorted(golden_records()) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batched_serve_is_bit_identical_to_scalar(variant):
    sdm = build_sdm(VARIANTS[variant])
    record = parity_record(sdm, serve(sdm))
    golden = golden_records()[variant]
    assert record.keys() == golden.keys()
    for key in golden:
        assert record[key] == golden[key], key
    if variant.startswith("two-caches") and "top" not in variant:
        # Not vacuous: the slower cache hit and its rows were promoted.
        assert sdm.tiers[1].stats.cache_hits > 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_serve_equals_the_reference_walk(variant):
    sdm, reference = build_sdm(VARIANTS[variant]), build_reference_sdm(VARIANTS[variant])
    assert parity_record(sdm, serve(sdm)) == parity_record(reference, serve(reference))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_row_keys_never_alias_across_tables(variant):
    sdm = build_sdm(VARIANTS[variant])
    first_row = np.zeros(1, dtype=np.int64)
    ranges = {}
    for table_name, decision in sdm.placement.decisions.items():
        stored = np.arange(decision.num_rows)
        keys = sdm.chain.row_keys(table_name, stored)
        assert np.array_equal(keys, keys[0] + stored)  # one contiguous range
        ranges[table_name] = (int(keys[0]), int(keys[-1]) + 1)
    # The ranges are disjoint and tile [0, total), one key per stored row.
    ordered = sorted(ranges.values())
    assert [lo for lo, _ in ordered] == [0] + [hi for _, hi in ordered[:-1]]
    for table_name, state in sdm._sm_tables.items():
        lo, hi = ranges[table_name]
        assert hi - lo == state.stored_rows
    if variant == "pruned":
        lo, hi = ranges["user_0"]
        assert hi - lo < sdm.model.table("user_0").spec.num_rows
    # Row 0 of one table, cached, is no other table's row 0 in either
    # internal cache.
    for table_name in ranges:
        cache = UnifiedRowCache(64 * 1024)
        for internal, row_len in ((cache._memory_cache, 64), (cache._cpu_cache, 512)):
            internal.fill_batch(row_len, sdm.chain.row_keys(table_name, first_row))
            for other in ranges:
                slot = internal.lookup_slots(sdm.chain.row_keys(other, first_row))[0]
                assert (slot >= 0) == (other == table_name), (table_name, other)


@pytest.mark.parametrize("variant", ["pooled-off", "serial-tables", "warm-pooled-off"])
def test_runs_share_one_cache_probe(variant, monkeypatch):
    # Not vacuous: with the pooled cache off, the tables of a query are
    # probed in runs, so the product makes fewer row-cache probes than it
    # serves SM tables, while the reference above probes table by table.
    probes = []
    probe_run = UnifiedRowCache.probe_run

    def counting(self, batches):
        probes.append(len(batches))
        return probe_run(self, batches)

    monkeypatch.setattr(UnifiedRowCache, "probe_run", counting)
    sdm = build_sdm(VARIANTS[variant])
    serve(sdm)
    assert len(probes) < sdm.stats.sm_table_requests
    assert sum(probes) == sdm.stats.sm_table_requests
    assert max(probes) > 1


@pytest.mark.parametrize("variant", SPLITTING_VARIANTS)
def test_hazard_batches_are_split_into_ranges(variant, monkeypatch):
    # The goldens match above; this pins *how*: batches whose promotions
    # would disturb their own hits are walked as several row ranges.
    ranges = []
    walk = TierChain._walk_range

    def counting(self, plan, lo, hi, resolution=None):
        ranges.append((lo, hi, resolution is None))
        return walk(self, plan, lo, hi, resolution)

    monkeypatch.setattr(TierChain, "_walk_range", counting)
    sdm = build_sdm(VARIANTS[variant])
    serve(sdm)
    assert any(resolved_again for _, _, resolved_again in ranges)  # some fetch was split
    assert all(lo < hi for lo, hi, _ in ranges)


def test_oversize_row_is_rejected_and_the_cache_stays_within_capacity():
    def within_capacity(sdm):
        for tier in sdm.tiers:
            if tier.cache is not None:
                for cache in (tier.cache._memory_cache, tier.cache._cpu_cache):
                    assert cache.used_bytes <= cache.capacity_bytes

    sdm = build_sdm(VARIANTS["two-caches-oversize-row"])
    serve(sdm, after_query=within_capacity)
    undersized, lower = sdm.tiers[0], sdm.tiers[1]
    assert undersized.stats.promoted_rows == 0
    assert undersized.cache.item_count == 0
    assert undersized.cache.stats.rejected_inserts > 0
    assert lower.stats.promoted_rows > 0 and lower.stats.cache_hits > 0


def test_repeated_promoted_row_splits_and_matches():
    # A row that sits in the cxl cache only, requested twice in one batch:
    # the first occurrence promotes it and the second finds it in the dram
    # cache, which no one-shot plan reproduces — the walk must split.
    variant = VARIANTS["two-caches-promote-all"]
    sdm, reference = build_sdm(variant), build_reference_sdm(variant)
    assert serve(sdm) == serve(reference)
    state = sdm._sm_tables["user_0"]
    rows = np.arange(state.stored_rows)
    keys = sdm.chain.row_keys("user_0", rows)
    held = [tier.cache.lookup_batch(state.row_bytes, keys) >= 0 for tier in sdm.tiers[:2]]
    lower_only = rows[held[1] & ~held[0]].tolist()
    assert len(lower_only) >= 2
    request = {"user_0": [lower_only[0], lower_only[1], lower_only[0]]}
    hits_before = sdm.tiers[0].stats.cache_hits
    served = [each.serve(request, 1.0) for each in (sdm, reference)]
    assert served[0] == served[1]
    assert sdm.tiers[0].stats.cache_hits == hits_before + 1  # the repeat
    assert parity_record(sdm, []) == parity_record(reference, [])


def test_plan_reports_no_size_hint():
    # The row length shapes every array of the walk; leaving it out is an
    # error at the call, not a silently different path.
    sdm = build_sdm({})
    rows = np.arange(4, dtype=np.int64)
    with pytest.raises(TypeError, match="row_len"):
        sdm.chain.plan("user_0", rows)


def test_batched_mode_actually_takes_the_batched_path():
    sdm = build_sdm({})
    outcome = fetch_rows(
        sdm.chain,
        "user_0",
        np.array([1, 2, 3, 4], dtype=np.int64),
        0.0,
        row_len=sdm._sm_tables["user_0"].row_bytes,
    )
    assert outcome.device_reads == 4
    assert outcome.cache_hits == 0
