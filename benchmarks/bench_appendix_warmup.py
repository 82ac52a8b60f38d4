"""Appendix A.4: cache warmup after a model update.

Reports (a) the capacity-overhead formula for rolling updates and (b) the
measured hit-rate warmup curve of a freshly loaded SDM instance, which the
paper observes to converge within minutes of serving.

(a) The paper's example (r=10%, w=5 min, p=50%, t=30 min) is quoted as 1.2%
in its prose, but its own formula ``(r*w)/(p*t)`` gives 1/30 ~= 3.3% for
those numbers; the table prints the formula's value.

(b) The curve is a campaign over ``workload.num_queries``: each point serves
the first N queries of one stream (M1 at 4 tables per group x 1,024 rows, a
4 MiB row cache with the pooled cache off) on a fresh backend, with no
warm-up and one serving stream, and reads the cumulative row-cache hit rate
from ``backend_stats``.  A stream of N queries is the first N of any longer
stream of the same workload, so each point is the hit rate after N queries.
"""

from repro import CampaignSpec, ScenarioSpec, format_series, format_table, run_campaign
from repro.core import warmup_capacity_overhead
from repro.sim.units import MIB

from _util import emit, run_once

SPEC = {
    "name": "appendix-a4",
    "model": {"spec": "M1", "max_tables_per_group": 4, "max_rows_per_table": 1024, "item_batch": 2},
    "backend": {
        "name": "sdm",
        "options": {"row_cache_capacity_bytes": 4 * MIB, "pooled_cache_enabled": False},
    },
    "workload": {"num_users": 120, "user_reuse_probability": 0.9, "seed": 3},
    "serving": {"concurrency": 1, "warmup_queries": 0},
}

GRID = {"workload.num_queries": [25, 50, 100, 200, 400]}


def build_appendix_a4():
    overhead = warmup_capacity_overhead(
        updating_fraction=0.10,
        warmup_minutes=5,
        warmup_performance=0.50,
        update_interval_minutes=30,
    )
    campaign = CampaignSpec.from_grid(ScenarioSpec.from_dict(SPEC), GRID)
    curve = [
        (outcome.result.num_queries, outcome.result.backend_stats["row cache hit rate"])
        for outcome in run_campaign(campaign)
    ]
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
