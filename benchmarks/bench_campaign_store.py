"""Campaign executor + store: cold matrix run vs memoised re-run.

Not a paper table — this benchmarks the orchestration layer itself.  A small
backend × concurrency matrix is executed cold (every point simulated) and
then re-run against its experiment store, where every point is served from
disk.  The second number is what "interrupted campaigns resume for free"
costs in practice: a JSONL read instead of a simulation.
"""

import tempfile
from pathlib import Path

from repro import CampaignSpec, ExperimentStore, ScenarioSpec, format_table, run_campaign
from repro.api import ModelChoice, ServingChoice, WorkloadChoice

from _util import emit, run_once

GRID = {"backend.name": ["dram", "sdm"], "serving.concurrency": [1, 2]}


def build_campaign() -> CampaignSpec:
    base = ScenarioSpec(
        name="bench-campaign",
        model=ModelChoice(max_tables_per_group=2, max_rows_per_table=512),
        workload=WorkloadChoice(num_queries=60, num_users=100),
        serving=ServingChoice(concurrency=1, warmup_queries=10),
    )
    return CampaignSpec.from_grid(base, GRID, name="bench-campaign")


def run_cold_then_warm(store_root: Path):
    campaign = build_campaign()
    store = ExperimentStore(store_root)
    cold = run_campaign(campaign, store=store)
    warm = run_campaign(campaign, store=store)
    return cold, warm


def bench_campaign_cold(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        campaign = build_campaign()
        store = ExperimentStore(Path(tmp) / "run")
        outcomes = run_once(benchmark, run_campaign, campaign, store=store)
    rows = [
        [outcome.scenario, round(outcome.result.achieved_qps, 1), outcome.cached]
        for outcome in outcomes
    ]
    emit(
        "campaign: cold run (every point simulated)",
        format_table(["point", "achieved QPS", "cached"], rows),
    )


def bench_campaign_store_served(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp) / "run"
        campaign = build_campaign()
        store = ExperimentStore(store_root)
        run_campaign(campaign, store=store)  # populate outside the timed region
        outcomes = run_once(
            benchmark, run_campaign, campaign, store=ExperimentStore(store_root)
        )
    assert all(outcome.cached for outcome in outcomes)
    rows = [
        [outcome.scenario, round(outcome.result.achieved_qps, 1), outcome.cached]
        for outcome in outcomes
    ]
    emit(
        "campaign: re-run against the store (zero points simulated)",
        format_table(["point", "achieved QPS", "cached"], rows),
    )
