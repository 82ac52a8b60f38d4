"""Table 8: M1 on HW-L (DRAM only) vs HW-SS + SDM (Nand Flash).

Reproduces the deployment accounting: HW-SS serves half the per-host QPS at
0.4x the power, so the fleet saves ~20% power.  Also checks the section-5.1
side facts: ~246 kIOPS raw demand, >90% steady-state hit rate (measured on
the scaled model), <25 kIOPS sustained demand after the cache, and the DRAM
saved per model.

The whole scenario — scaled M1 on the SDM backend, steady-state measurement
window, HW-SS fleet sizing against the HW-L baseline — is one
:class:`repro.ScenarioSpec`; a single :meth:`repro.Session.run` yields both
the measured hit rate and the Table 8 power comparison.
"""

from repro import ScenarioSpec, Session, format_table
from repro.api import BackendChoice, ModelChoice, ServingChoice, WorkloadChoice
from repro.serving import HW_L, HW_SS
from repro.sim.units import MIB

from _util import emit, run_once

HW_L_QPS = 240.0
HW_SS_QPS = 120.0
TOTAL_QPS = HW_L_QPS * 1200  # the paper's 1200-host HW-L deployment
SM_TABLES = 50
AVG_POOLING = 42

TABLE8_SPEC = ScenarioSpec(
    name="table8-m1-power",
    model=ModelChoice(spec="M1", max_tables_per_group=4, max_rows_per_table=8192, item_batch=2),
    backend=BackendChoice(
        name="sdm",
        options=dict(
            row_cache_capacity_bytes=2 * MIB,
            pooled_cache_enabled=False,
        ),
    ),
    workload=WorkloadChoice(
        num_queries=400, item_batch=2, num_users=1000, user_reuse_probability=0.7
    ),
    serving=ServingChoice(
        concurrency=1,
        # Warm the caches on 300 queries, then measure steady state only.
        warmup_queries=300,
        reset_stats_after_warmup=True,
        platform="HW-SS",
        qps_per_host=HW_SS_QPS,
        baseline_platform="HW-L",
        baseline_qps_per_host=HW_L_QPS,
        fleet_qps=TOTAL_QPS,
    ),
)


def build_table8():
    result = Session(TABLE8_SPEC).run()
    power = result.power

    raw_iops = HW_SS_QPS * SM_TABLES * AVG_POOLING
    hit_rate = result.backend_stats["row cache hit rate"]
    steady_iops = raw_iops * (1.0 - hit_rate)
    dram_saved_tb = (HW_L.dram_bytes - HW_SS.dram_bytes) * power.baseline_num_hosts / 1e12

    return {
        "rows": [
            ["HW-L", HW_L_QPS, 1.0, power.baseline_num_hosts, power.baseline_fleet_power],
            ["HW-SS + SDM", HW_SS_QPS, 0.4, power.num_hosts, power.fleet_power],
        ],
        "power_saving": power.power_saving,
        "raw_iops": raw_iops,
        "hit_rate": hit_rate,
        "steady_iops": steady_iops,
        "dram_saved_tb": dram_saved_tb,
    }


def bench_table8_m1_power(benchmark):
    data = run_once(benchmark, build_table8)
    emit(
        "Table 8: M1 power comparison (paper: 20% saving, >96% hit rate, 246k->10k IOPS)",
        format_table(
            ["scenario", "QPS/host", "power/host", "hosts", "total power"],
            data["rows"],
            float_fmt=".1f",
        )
        + "\n"
        + format_table(
            ["metric", "value"],
            [
                ["fleet power saving", data["power_saving"]],
                ["raw SM IOPS demand", data["raw_iops"]],
                ["measured steady-state hit rate", data["hit_rate"]],
                ["steady-state SM IOPS", data["steady_iops"]],
                ["DRAM saved fleet-wide (TB)", data["dram_saved_tb"]],
            ],
            float_fmt=".3f",
        ),
    )
    assert abs(data["power_saving"] - 0.2) < 1e-9
    assert 240_000 <= data["raw_iops"] <= 260_000
    assert data["hit_rate"] > 0.85
    assert data["steady_iops"] < 40_000
    assert data["dram_saved_tb"] > 150
