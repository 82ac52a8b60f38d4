"""Appendix A.5: de-quantisation at load time.

Expanding embedding rows to float32 on SM saves the runtime dequantisation
but makes the FM row cache far less space-efficient; the paper finds the
cache effect dominates for most use cases.  This bench compares cache
capacity (rows/MiB), hit rate and steady-state latency with and without
de-quantisation at load.

The stack is built by hand, not from a scenario spec: the model is
``tests/helpers.small_model`` (two user tables of 2,048 rows x dim 32 and one
item table), which no ``ModelChoice`` builds.
"""

from repro import format_table
from repro.core import SDMConfig, SoftwareDefinedMemory, dequantize_table
from repro.dlrm import ComputeSpec, InferenceEngine
from repro.sim.units import KIB
from repro.workload import QueryGenerator, WorkloadConfig

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import small_model  # noqa: E402

from _util import emit, run_once

NUM_QUERIES = 300


def _run(dequantize: bool):
    model = small_model(num_user=2, num_item=1, num_rows=2048, dim=32, item_batch=2, seed=0)
    sdm = SoftwareDefinedMemory(
        model,
        SDMConfig(
            row_cache_capacity_bytes=32 * KIB,
            pooled_cache_enabled=False,
            dequantize_at_load=dequantize,
        ),
    )
    engine = InferenceEngine(model, ComputeSpec(), sdm)
    queries = QueryGenerator(
        model,
        WorkloadConfig(item_batch=2, num_users=100, user_reuse_probability=0.8),
        seed=1,
    ).generate(NUM_QUERIES)
    latencies = [engine.run_query(q).latency for q in queries]
    steady = latencies[NUM_QUERIES // 3 :]
    return {
        "hit_rate": sdm.row_cache_hit_rate,
        "sm_footprint_kib": sdm.sm_footprint_bytes() / KIB,
        "cached_rows": sdm.row_cache.item_count,
        "mean_latency_us": sum(steady) / len(steady) * 1e6,
    }


def build_appendix_a5():
    quantized = _run(dequantize=False)
    dequantized = _run(dequantize=True)
    table = small_model(num_rows=64, dim=32).table("user_0")
    expansion = dequantize_table(table)
    rows = [
        ["quantised rows on SM (deployed)", *quantized.values()],
        ["de-quantised at load", *dequantized.values()],
    ]
    return rows, quantized, dequantized, expansion


def bench_appendix_dequant(benchmark):
    rows, quantized, dequantized, expansion = run_once(benchmark, build_appendix_a5)
    emit(
        "Appendix A.5: de-quantisation at load "
        f"(row expands {expansion.sm_growth_factor:.2f}x, cache holds "
        f"{expansion.cache_efficiency_loss:.0%} fewer rows per MiB)",
        format_table(
            ["configuration", "row-cache hit rate", "SM footprint KiB", "rows cached", "steady latency (us)"],
            rows,
            float_fmt=".2f",
        ),
    )
    # De-quantisation grows the SM footprint and caches fewer rows in the
    # same FM budget, hurting the hit rate -- the paper's conclusion.
    assert dequantized["sm_footprint_kib"] > quantized["sm_footprint_kib"]
    assert dequantized["cached_rows"] < quantized["cached_rows"]
    assert dequantized["hit_rate"] <= quantized["hit_rate"] + 0.02
