"""Serving-configuration tuning: the paper's Tuning APIs in action.

Uses the :class:`~repro.core.autotune.AutoTuner` to sweep the knobs the paper
exposes (row-cache size, pooled-cache LenThreshold, and the tier list: SM
technology and the DRAM budget that homes tables in fast memory) for a scaled
M2-like model, scoring each configuration by the throughput the host sustains
at a p95 latency target.

Run with:  python examples/tuning_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import format_table
from repro.core import AutoTuner, SDMConfig, SoftwareDefinedMemory
from repro.dlrm import ComputeSpec, InferenceEngine, M2_SPEC, build_scaled_model
from repro.serving import LatencyTarget, ServingEngine
from repro.sim.units import KIB, MIB, MILLISECOND
from repro.workload import QueryGenerator, WorkloadConfig

TARGET = LatencyTarget(percentile=95, budget_seconds=10 * MILLISECOND)


def host(sm: str, capacity: str, dram_budget: int) -> list:
    """A tier list: DRAM homing ``dram_budget`` bytes of tables over 2 SM devices."""
    return [
        {"technology": "dram", "capacity": dram_budget},
        {"technology": sm, "capacity": capacity, "devices": 2},
    ]


#: Nand Flash and Optane hosts (2 devices each), without and with a DRAM budget.
HOSTS = [
    host(sm, capacity, budget)
    for sm, capacity in (("nand", "4TB"), ("optane", "800GB"))
    for budget in (0, 2 * MIB)
]


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
    tuner = AutoTuner(
        base_config=SDMConfig(pooled_cache_capacity_bytes=512 * KIB),
        search_space={
            "tiers": HOSTS,
            "row_cache_capacity_bytes": [128 * KIB, 1 * MIB],
            "pooled_len_threshold": [1, 8],
        },
        evaluate=evaluate,
    )
    results = tuner.run()

    rows = []
    for result in results[:8]:
        config = result.config
        rows.append(
            [
                config.tiers[1].technology.value,
                config.row_cache_capacity_bytes // KIB,
                config.pooled_len_threshold,
                config.tiers[0].capacity_bytes // KIB,
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
