"""Model-update and warmup planning for an SDM deployment (appendix A.3/A.4).

Given a model's SM footprint and a device choice, computes how long full,
online and incremental refreshes take, which refresh cadences the device
endurance sustains (Nand Flash vs Optane), and how much serving capacity must
be over-provisioned to mask cache warmup during rolling updates.

Run with:  python examples/model_update_planning.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import format_table
from repro.core import ModelUpdatePlanner, UpdateStrategy, warmup_capacity_overhead
from repro.sim.units import GB, TB, format_time
from repro.storage import nand_flash_spec, optane_ssd_spec, update_interval_days

USER_EMBEDDING_BYTES = 100 * GB  # M1/M2-scale user embeddings on SM
DENSE_BYTES = 2 * GB


def update_study() -> None:
    rows = []
    for device_name, specs in (
        ("2x 2TB Nand Flash", [nand_flash_spec(2 * TB)] * 2),
        ("2x 400GB Optane", [optane_ssd_spec(400 * GB)] * 2),
    ):
        planner = ModelUpdatePlanner(specs, USER_EMBEDDING_BYTES, DENSE_BYTES)
        for strategy in (
            UpdateStrategy.FULL_OFFLINE,
            UpdateStrategy.FULL_ONLINE,
            UpdateStrategy.INCREMENTAL,
            UpdateStrategy.DENSE_ONLY,
        ):
            plan = planner.plan(strategy, incremental_fraction=0.1)
            rows.append(
                [
                    device_name,
                    strategy.value,
                    plan.bytes_written / GB,
                    format_time(plan.duration_seconds) if plan.duration_seconds else "-",
                    format_time(plan.sustainable_interval_seconds)
                    if plan.sustainable_interval_seconds
                    else "unlimited",
                    plan.host_serving_during_update,
                ]
            )
    print(format_table(
        ["devices", "strategy", "GB written", "duration", "min sustainable interval", "serves during update"],
        rows,
        title="model refresh planning",
        float_fmt=".1f",
    ))

    interval = update_interval_days(USER_EMBEDDING_BYTES, dwpd=5.0, sm_capacity_bytes=4 * TB)
    print(f"\npaper endurance formula: update interval >= {interval:.2f} days "
          "(365 * ModelSize / (DWPD * SMCapacity)) for Nand Flash")


def warmup_study() -> None:
    rows = []
    for update_interval in (10, 30, 60):
        for warmup_minutes in (2, 5):
            overhead = warmup_capacity_overhead(
                updating_fraction=0.10,
                warmup_minutes=warmup_minutes,
                warmup_performance=0.5,
                update_interval_minutes=update_interval,
            )
            rows.append([update_interval, warmup_minutes, overhead * 100.0])
    print()
    print(format_table(
        ["update interval (min)", "warmup (min)", "extra capacity needed (%)"],
        rows,
        title="warmup over-provisioning for rolling updates (r=10%, p=50%)",
        float_fmt=".2f",
    ))


def main() -> None:
    update_study()
    warmup_study()


if __name__ == "__main__":
    main()
