"""Section 4.5: de-pruning at load time.

Serving a pruned table from SM requires its mapping tensor in FM; de-pruning
frees that FM for the row cache at the cost of a larger SM footprint and a
few percent more SM requests (the pruned rows -- rarely accessed in practice
-- now get fetched and cached).  The paper reports ~2.5% extra requests, up
to 2x the cache size and up to 48% better performance when SM-bound.

The workload here mirrors the paper's observation that pruned rows are cold:
each request draws hot (kept) rows from a Zipf distribution and touches a
pruned row with only 2.5% probability.

The SDM is built by hand, not from a scenario spec: it takes
``pruned_tables=``, which no backend option carries, and the bench times
single lookups served at simulated t=0 (``sdm.serve``), not queries.
"""

import numpy as np

from repro import format_table
from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.dlrm import EmbeddingTable, EmbeddingTableSpec, MLP, DLRMModel, prune_table
from repro.dlrm.pruning import PRUNED
from repro.sim.rng import make_rng
from repro.sim.units import KIB
from repro.storage import IOEngineConfig
from repro.workload import ZipfGenerator

from _util import emit, run_once

NUM_ROWS = 4096
DIM = 16
PRUNE_FRACTION = 0.3
PRUNED_ACCESS_PROBABILITY = 0.025
POOLING_FACTOR = 12
NUM_REQUESTS = 1500
BASE_CACHE_BYTES = 16 * KIB


def _build_model():
    spec = EmbeddingTableSpec(
        name="user_0", num_rows=NUM_ROWS, dim=DIM, is_user=True, avg_pooling_factor=POOLING_FACTOR
    )
    item_spec = EmbeddingTableSpec(
        name="item_0", num_rows=256, dim=DIM, is_user=False, avg_pooling_factor=4
    )
    tables = {
        spec.name: EmbeddingTable.random(spec, seed=0),
        item_spec.name: EmbeddingTable.random(item_spec, seed=0),
    }
    bottom = MLP([4, 8, 8], seed=0, name="bench/bottom")
    top = MLP([8 + 2 * DIM, 8, 1], seed=0, name="bench/top")
    return DLRMModel(
        name="deprune-bench", bottom_mlp=bottom, top_mlp=top, tables=tables, dense_dim=4, item_batch=1
    )


def _requests(pruned_mapping):
    """Index sequences that rarely touch pruned rows."""
    rng = make_rng(7, "deprune-requests")
    kept_rows = np.nonzero(pruned_mapping != PRUNED)[0]
    pruned_rows = np.nonzero(pruned_mapping == PRUNED)[0]
    hot = ZipfGenerator(len(kept_rows), alpha=1.1, seed=3)
    requests = []
    for _ in range(NUM_REQUESTS):
        indices = kept_rows[hot.sample(POOLING_FACTOR, unique=True)].tolist()
        if rng.random() < PRUNED_ACCESS_PROBABILITY * POOLING_FACTOR:
            indices[-1] = int(pruned_rows[rng.integers(len(pruned_rows))])
        requests.append(indices)
    return requests


def _run(deprune: bool, requests, pruned):
    model = _build_model()
    mapping_bytes = pruned["user_0"].mapping_tensor_bytes
    sdm = SoftwareDefinedMemory(
        model,
        SDMConfig(
            row_cache_capacity_bytes=BASE_CACHE_BYTES + (mapping_bytes if deprune else 0),
            pooled_cache_enabled=False,
            deprune_at_load=deprune,
            io=IOEngineConfig(max_outstanding_per_device=16),
        ),
        pruned_tables=pruned,
    )
    completions = []
    for indices in requests:
        completions.append(sdm.serve({"user_0": indices}, 0.0))
    steady = completions[NUM_REQUESTS // 3 :]
    return {
        # Requests actually issued to the SM subsystem (pruned rows are
        # skipped entirely when the mapping tensor is consulted in FM).
        "sm_requests": sdm.stats.sm_row_lookups - sdm.stats.pruned_rows_skipped,
        "sm_ios": sdm.stats.sm_ios,
        "hit_rate": sdm.row_cache_hit_rate,
        "cache_capacity_kib": sdm.row_cache.capacity_bytes / KIB,
        "sm_footprint_kib": sdm.sm_footprint_bytes() / KIB,
        "mean_fetch_us": float(np.mean(steady)) * 1e6,
    }


def build_section45():
    model = _build_model()
    pruned = {"user_0": prune_table(model.table("user_0"), PRUNE_FRACTION, seed=1)}
    requests = _requests(pruned["user_0"].mapping)
    with_mapping = _run(False, requests, pruned)
    depruned = _run(True, requests, pruned)
    rows = [
        ["pruned + mapping tensor in FM", *with_mapping.values()],
        ["de-pruned at load", *depruned.values()],
    ]
    return rows, with_mapping, depruned


def bench_sec45_depruning(benchmark):
    rows, with_mapping, depruned = run_once(benchmark, build_section45)
    extra_requests = depruned["sm_requests"] / with_mapping["sm_requests"] - 1.0
    speedup = with_mapping["mean_fetch_us"] / depruned["mean_fetch_us"] - 1.0
    emit(
        "Section 4.5: de-pruning (paper: +2.5% requests, up to 2x cache, up to +48% perf)",
        format_table(
            ["configuration", "SM requests", "SM IOs", "row-cache hit rate", "cache KiB", "SM footprint KiB", "mean user-emb fetch (us)"],
            rows,
            float_fmt=".2f",
        )
        + f"\nextra SM requests from de-pruning: {extra_requests:+.1%}, fetch-time improvement: {speedup:+.1%}",
    )
    # A few percent more SM traffic (the rarely-touched zero rows).
    assert 0.0 <= extra_requests < 0.10
    # The freed mapping-tensor memory meaningfully enlarges the cache.
    assert depruned["cache_capacity_kib"] > with_mapping["cache_capacity_kib"] * 1.5
    # ...which raises the hit rate and improves the SM-bound fetch time.
    assert depruned["hit_rate"] > with_mapping["hit_rate"]
    assert depruned["mean_fetch_us"] < with_mapping["mean_fetch_us"]
    assert depruned["sm_footprint_kib"] >= with_mapping["sm_footprint_kib"]
