"""Appendix A.4: cache warmup after a model update.

Reports (a) the capacity-overhead formula for rolling updates and (b) the
measured hit-rate warmup curve of a freshly loaded SDM instance, which the
paper observes to converge within minutes of serving.
"""

from repro import format_series, format_table
from repro.core import SDMConfig, SoftwareDefinedMemory, warmup_capacity_overhead, warmup_hit_rate_curve
from repro.dlrm import ComputeSpec, InferenceEngine, M1_SPEC, build_scaled_model
from repro.sim.units import MIB
from repro.workload import QueryGenerator, WorkloadConfig

from _util import emit, run_once


def build_appendix_a4():
    overhead = warmup_capacity_overhead(
        updating_fraction=0.10,
        warmup_minutes=5,
        warmup_performance=0.50,
        update_interval_minutes=30,
    )

    model = build_scaled_model(
        M1_SPEC, max_tables_per_group=4, max_rows_per_table=1024, item_batch=2, seed=0
    )
    sdm = SoftwareDefinedMemory(
        model,
        SDMConfig(row_cache_capacity_bytes=4 * MIB, pooled_cache_enabled=False),
    )
    engine = InferenceEngine(model, ComputeSpec(), sdm)
    generator = QueryGenerator(
        model,
        WorkloadConfig(item_batch=2, num_users=120, user_reuse_probability=0.9),
        seed=3,
    )
    queries = iter(generator.generate(600))

    def run_queries(count: int) -> float:
        for _ in range(count):
            engine.run_query(next(queries))
        return sdm.row_cache_hit_rate

    curve = warmup_hit_rate_curve(run_queries, checkpoints=[25, 50, 100, 200, 400])
    return overhead, curve


def bench_appendix_warmup(benchmark):
    overhead, curve = run_once(benchmark, build_appendix_a4)
    emit(
        "Appendix A.4: warmup",
        format_table(
            ["metric", "value"],
            [["rolling-update capacity overhead (r=10%, w=5m, p=50%, t=30m)", overhead]],
            float_fmt=".4f",
        )
        + "\n"
        + format_series(
            "cumulative row-cache hit rate during warmup",
            curve,
            x_label="queries served",
            y_label="hit rate",
        ),
    )
    assert 0.01 < overhead < 0.05
    hit_rates = [point[1] for point in curve]
    # The hit rate climbs as the cache warms and converges to a high value.
    assert hit_rates[-1] > hit_rates[0]
    assert hit_rates[-1] > 0.6
