"""Appendix A.2: inter-op parallelism.

Issuing the IO of different embedding operators asynchronously overlaps IO
across tables; the paper observed ~20% lower latency per query and hence
~20% more QPS per host at the latency target for M1.
"""

from repro import format_table
from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.dlrm import ComputeSpec, InferenceEngine, M1_SPEC, build_scaled_model
from repro.serving import ServingEngine
from repro.sim.units import KIB
from repro.workload import QueryGenerator, WorkloadConfig

from _util import emit, run_once

NUM_QUERIES = 80


def _run(inter_op: bool):
    model = build_scaled_model(
        M1_SPEC, max_tables_per_group=6, max_rows_per_table=2048, item_batch=2, seed=0
    )
    sdm = SoftwareDefinedMemory(
        model,
        SDMConfig(
            row_cache_capacity_bytes=64 * KIB,
            pooled_cache_enabled=False,
            inter_op_parallelism=inter_op,
        ),
    )
    engine = InferenceEngine(model, ComputeSpec(), sdm)
    queries = QueryGenerator(
        model, WorkloadConfig(item_batch=2, num_users=300, user_reuse_probability=0.4), seed=1
    ).generate(NUM_QUERIES)
    result = ServingEngine(engine).run_closed_loop(queries, warmup_queries=10)
    return result.mean_latency, result.achieved_qps


def build_appendix_a2():
    serial_latency, serial_qps = _run(inter_op=False)
    parallel_latency, parallel_qps = _run(inter_op=True)
    return [
        ["serial embedding operators", serial_latency * 1e6, serial_qps],
        ["inter-op parallelism", parallel_latency * 1e6, parallel_qps],
    ]


def bench_appendix_interop(benchmark):
    rows = run_once(benchmark, build_appendix_a2)
    emit(
        "Appendix A.2: inter-op parallelism (paper: -20% latency, +20% QPS for M1)",
        format_table(
            ["execution", "mean latency (us)", "achieved QPS"],
            rows,
            float_fmt=".1f",
        ),
    )
    serial, parallel = rows
    latency_reduction = 1.0 - parallel[1] / serial[1]
    qps_gain = parallel[2] / serial[2] - 1.0
    assert latency_reduction > 0.05
    assert qps_gain > 0.05
