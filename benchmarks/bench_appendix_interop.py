"""Appendix A.2: inter-op parallelism.

Issuing the IO of different embedding operators asynchronously overlaps IO
across tables; the paper observed ~20% lower latency per query and hence
~20% more QPS per host at the latency target for M1.

The study is a two-point campaign over the SDM backend's
``inter_op_parallelism`` option: M1 at 6 tables per group x 2,048 rows, a
64 KiB row cache with the pooled cache off, 80 queries served closed-loop on
one stream after 10 warm-up queries.
"""

from repro import CampaignSpec, ScenarioSpec, format_table, run_campaign
from repro.sim.units import KIB

from _util import emit, run_once

SPEC = {
    "name": "appendix-a2",
    "model": {"spec": "M1", "max_tables_per_group": 6, "max_rows_per_table": 2048, "item_batch": 2},
    "backend": {
        "name": "sdm",
        "options": {"row_cache_capacity_bytes": 64 * KIB, "pooled_cache_enabled": False},
    },
    "workload": {"num_queries": 80, "num_users": 300, "user_reuse_probability": 0.4, "seed": 1},
    "serving": {"concurrency": 1, "warmup_queries": 10},
}

GRID = {"backend.options.inter_op_parallelism": [False, True]}

LABELS = ("serial embedding operators", "inter-op parallelism")


def build_appendix_a2():
    campaign = CampaignSpec.from_grid(ScenarioSpec.from_dict(SPEC), GRID)
    return [
        [label, outcome.result.latency["mean"] * 1e6, outcome.result.achieved_qps]
        for label, outcome in zip(LABELS, run_campaign(campaign))
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
