"""Table 9: M2 -- scale-out vs Nand-Flash SDM vs Optane SDM.

HW-AN + scale-out serves 450 QPS/host but needs helper hosts (1.0 + 0.25
power per 5 hosts).  HW-AN + SDM is capped by Nand Flash latency (the paper
measures 230 QPS/host), so it needs many more hosts.  HW-AO + SDM keeps the
450 QPS/host and removes the helpers, saving ~5% fleet power.
"""

from repro import format_table
from repro.serving import (
    DeploymentScenario,
    HW_AN,
    HW_AO,
    HW_S,
    PowerModel,
    plan_deployment,
    sm_bound_qps,
)
from repro.serving.power import power_saving
from repro.sim.units import MICROSECOND
from repro.storage import nand_flash_spec, optane_ssd_spec

from _util import emit, run_once

ACCELERATOR_QPS = 450.0
NUM_BASELINE_HOSTS = 1500
TOTAL_QPS = ACCELERATOR_QPS * NUM_BASELINE_HOSTS
USER_TABLES = 450
AVG_POOLING = 25
HIT_RATE = 0.9
#: The SM must serve IOs in the "few 10s of us" latency region (section 3).
LATENCY_BUDGET = 100 * MICROSECOND


def build_table9():
    power_model = PowerModel()
    lookups_per_query = USER_TABLES * AVG_POOLING

    nand_qps = min(
        sm_bound_qps(lookups_per_query, [nand_flash_spec(1e12)] * 2, HIT_RATE, LATENCY_BUDGET),
        ACCELERATOR_QPS,
    )
    optane_qps = min(
        sm_bound_qps(lookups_per_query, [optane_ssd_spec(400e9)] * 2, HIT_RATE, LATENCY_BUDGET),
        ACCELERATOR_QPS,
    )

    scale_out = plan_deployment(
        DeploymentScenario(
            "HW-AN + ScaleOut",
            HW_AN,
            qps_per_host=ACCELERATOR_QPS,
            total_qps=TOTAL_QPS,
            helper_platform=HW_S,
            helper_hosts_per_host=1.0 / 5.0,
        ),
        power_model,
    )
    nand_sdm = plan_deployment(
        DeploymentScenario("HW-AN + SDM", HW_AN, qps_per_host=nand_qps, total_qps=TOTAL_QPS),
        power_model,
    )
    optane_sdm = plan_deployment(
        DeploymentScenario("HW-AO + SDM", HW_AO, qps_per_host=optane_qps, total_qps=TOTAL_QPS),
        power_model,
    )
    return {
        "rows": [
            ["HW-AN + ScaleOut", ACCELERATOR_QPS, scale_out.total_hosts, scale_out.total_power],
            ["HW-AN + SDM", nand_qps, nand_sdm.total_hosts, nand_sdm.total_power],
            ["HW-AO + SDM", optane_qps, optane_sdm.total_hosts, optane_sdm.total_power],
        ],
        "saving_vs_scaleout": power_saving(scale_out.total_power, optane_sdm.total_power),
        "required_iops": TOTAL_QPS / NUM_BASELINE_HOSTS * lookups_per_query,
        "sustained_iops": ACCELERATOR_QPS * lookups_per_query * (1 - HIT_RATE),
    }


def bench_table9_m2_power(benchmark):
    data = run_once(benchmark, build_table9)
    emit(
        "Table 9: M2 deployment comparison (paper: 450/230/450 QPS, 5% saving)",
        format_table(
            ["scenario", "QPS/host", "total hosts", "total power"],
            data["rows"],
            float_fmt=".1f",
        )
        + "\n"
        + format_table(
            ["metric", "value"],
            [
                ["power saving (Optane SDM vs scale-out)", data["saving_vs_scaleout"]],
                ["raw IOPS per host", data["required_iops"]],
                ["sustained IOPS per host (90% hit)", data["sustained_iops"]],
            ],
            float_fmt=".3f",
        ),
    )
    rows = {row[0]: row for row in data["rows"]}
    # Nand Flash caps per-host QPS well below the accelerator's 450.
    assert rows["HW-AN + SDM"][1] < 450
    # Optane keeps the accelerator fully fed.
    assert rows["HW-AO + SDM"][1] == 450
    # Nand SDM burns more fleet power than scale-out; Optane SDM saves power.
    assert rows["HW-AN + SDM"][3] > rows["HW-AN + ScaleOut"][3]
    assert 0.02 < data["saving_vs_scaleout"] < 0.10
    # Raw demand is ~5 MIOPS, sustained ~0.5 MIOPS (paper: 4.8M / 480k).
    assert 4e6 < data["required_iops"] < 6.5e6
    assert 4e5 < data["sustained_iops"] < 6.5e5
