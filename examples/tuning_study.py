"""Serving-configuration tuning: the paper's Tuning APIs in action.

Uses the :class:`~repro.core.autotune.AutoTuner` to sweep the knobs the paper
exposes (row-cache size, pooled-cache LenThreshold, placement DRAM budget and
SM technology) for a scaled M2-like model, scoring each configuration by the
throughput the host sustains at a p95 latency target.

Run with:  python examples/tuning_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import format_table
from repro.core import AutoTuner, PlacementPolicy, SDMConfig, SoftwareDefinedMemory
from repro.dlrm import ComputeSpec, InferenceEngine, M2_SPEC, build_scaled_model
from repro.serving import LatencyTarget, ServingEngine
from repro.sim.units import KIB, MIB, MILLISECOND
from repro.storage import Technology
from repro.workload import QueryGenerator, WorkloadConfig

TARGET = LatencyTarget(percentile=95, budget_seconds=10 * MILLISECOND)


def evaluate(config: SDMConfig) -> float:
    """QPS at the latency target for one SDM configuration."""
    model = build_scaled_model(
        M2_SPEC, max_tables_per_group=4, max_rows_per_table=1024, item_batch=4, seed=0
    )
    sdm = SoftwareDefinedMemory(model, config)
    engine = InferenceEngine(model, ComputeSpec(), sdm)
    queries = QueryGenerator(
        model, WorkloadConfig(item_batch=4, num_users=200), seed=1
    ).generate(60)
    result = ServingEngine(engine).run_closed_loop(queries, warmup_queries=15)
    return result.qps_at_latency(TARGET)


def main() -> None:
    base = SDMConfig(
        placement_policy=PlacementPolicy.FIXED_FM_SM,
        pooled_cache_capacity_bytes=512 * KIB,
    )
    tuner = AutoTuner(
        base_config=base,
        search_space={
            "device_technology": [Technology.NAND_FLASH, Technology.OPTANE_SSD],
            "row_cache_capacity_bytes": [128 * KIB, 1 * MIB],
            "pooled_len_threshold": [1, 8],
            "dram_budget_bytes": [0, 2 * MIB],
        },
        evaluate=evaluate,
    )
    results = tuner.run()

    rows = []
    for result in results[:8]:
        overrides = result.overrides
        rows.append(
            [
                overrides["device_technology"].value,
                overrides["row_cache_capacity_bytes"] // KIB,
                overrides["pooled_len_threshold"],
                overrides["dram_budget_bytes"] // KIB,
                result.score,
            ]
        )
    print(format_table(
        ["SM technology", "row cache (KiB)", "LenThreshold", "DRAM budget (KiB)", "QPS @ p95 target"],
        rows,
        title=f"top tuning candidates (of {len(results)} evaluated)",
        float_fmt=".1f",
    ))
    best = results[0]
    print(f"\nbest configuration: {best.overrides} -> {best.score:.1f} QPS at the latency target")


if __name__ == "__main__":
    main()
