"""Campaigns end to end: a 3-axis matrix, a store, and a regression diff.

This walkthrough declares one :class:`repro.CampaignSpec` over three axes —
embedding backend (whole :class:`BackendChoice` sections) × offered load ×
serving concurrency — and runs it twice through the parallel executor:

1. a **baseline** run with the default admission queue, persisted under
   ``runs/campaign_demo/baseline``;
2. a **candidate** run of the *same grid* with a deliberately starved
   admission queue (``traffic.queue_depth=2``), persisted next to it.

:func:`repro.compare_runs` then matches the two runs point by point (names
encode the grid coordinates) and flags direction-aware regressions: shrinking
the queue sheds traffic, so ``dropped_queries`` regresses at high load even
though tail latency may *improve* — exactly the kind of trade-off a scalar
diff would hide.  Both stores are memoised: re-running this script only
re-simulates points that are not already on disk.

Run with:  python examples/campaign.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    BackendChoice,
    CampaignSpec,
    ExperimentStore,
    ModelChoice,
    ScenarioSpec,
    ServingChoice,
    TrafficSpec,
    WorkloadChoice,
    campaign_table,
    compare_runs,
    run_campaign,
)
from repro.runtime import LocalPoolRuntime
from repro.sim.units import MIB

RUNS_DIR = Path(__file__).resolve().parent.parent / "runs" / "campaign_demo"

GRID = {
    "backend": [
        BackendChoice(name="dram"),
        BackendChoice(name="sdm", options=dict(row_cache_capacity_bytes=1 * MIB)),
    ],
    "traffic.offered_qps": [1000.0, 8000.0, 32000.0],
    "serving.concurrency": [1, 2],
}


def build_campaign(queue_depth: int) -> CampaignSpec:
    base = ScenarioSpec(
        name="campaign-demo",
        model=ModelChoice(spec="M1", max_tables_per_group=2, max_rows_per_table=512),
        workload=WorkloadChoice(num_queries=150, num_users=100),
        traffic=TrafficSpec(
            mode="open",
            arrival="poisson",
            offered_qps=GRID["traffic.offered_qps"][0],
            queue_depth=queue_depth,
        ),
        serving=ServingChoice(concurrency=1, warmup_queries=30, store_results=False),
    )
    return CampaignSpec.from_grid(base, GRID, name="campaign-demo")


def run_into(campaign: CampaignSpec, store_dir: Path):
    store = ExperimentStore(store_dir)
    store.write_campaign(campaign.to_dict())
    # LocalPoolRuntime is the work-stealing executor: points dispatch
    # longest-expected-first, each worker keeps built backends resident
    # across points sharing a backend_hash (here: all six points per
    # BackendChoice), a failing point would quarantine instead of aborting
    # its siblings, and every worker appends straight to its own store
    # shard.  Serial, pool, and reuse-off all produce bit-identical results.
    outcomes = run_campaign(
        campaign, runtime=LocalPoolRuntime(workers=4), retries=1, store=store
    )
    cached = sum(1 for outcome in outcomes if outcome.cached)
    failed = [outcome for outcome in outcomes if outcome.failed]
    print(f"{store_dir.name}: {len(outcomes)} points ({cached} from store)")
    if failed:
        raise SystemExit(
            f"{len(failed)} point(s) quarantined, e.g. "
            f"{failed[0].scenario}: {failed[0].error_type}: {failed[0].error}"
        )
    return outcomes


def main() -> None:
    # Plan first: the dry runtime expands and validates the whole grid and
    # reports what would execute, without simulating anything.
    plan = run_campaign(build_campaign(queue_depth=64), runtime="dry")
    print(f"plan: {len(plan)} points, e.g. {plan[0].scenario}")

    baseline = run_into(build_campaign(queue_depth=64), RUNS_DIR / "baseline")
    candidate = run_into(build_campaign(queue_depth=2), RUNS_DIR / "candidate")

    print()
    print(
        campaign_table(
            baseline,
            ["achieved_qps", "dropped_queries"],
            title="baseline (queue_depth=64)",
        )
    )
    print()
    print(
        campaign_table(
            candidate,
            ["achieved_qps", "dropped_queries"],
            title="candidate (queue_depth=2)",
        )
    )

    comparison = compare_runs(
        RUNS_DIR / "baseline",
        RUNS_DIR / "candidate",
        metrics=["achieved_qps", "latency_seconds.p99", "dropped_queries"],
        tolerance=0.05,  # ignore sub-5% wobble, flag real movement
    )
    print()
    print(comparison.table())
    print(
        f"\n{len(comparison.regressions)} regression(s) across "
        f"{comparison.compared_points} matched points "
        f"({len(comparison.spec_drift)} with deliberate spec drift)"
    )


if __name__ == "__main__":
    main()
