"""Load sweep as a campaign: the p99 saturation knee of a host, per backend.

The paper's per-host QPS claims (Tables 8/9) are statements about latency
under load, and the place they live is the latency-vs-offered-load curve:
flat while the host keeps up, then a knee where queueing delay takes over.
The backend × offered-QPS matrix is exactly a campaign grid, so this example
declares it once as a :class:`repro.CampaignSpec` — a ``backend`` axis (whole
:class:`BackendChoice` sections, since ``dram`` and ``sdm`` take different
options) crossed with ``traffic.offered_qps`` — and runs it through the
parallel executor with a persistent store.  Re-running the script serves
every completed point from ``runs/load_sweep/`` instead of re-simulating the
whole matrix; delete that directory for a fresh measurement.

Run with:  python examples/load_sweep.py
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
    format_table,
    run_campaign,
)
from repro.runtime import LocalPoolRuntime
from repro.sim.units import MIB

OFFERED_QPS = [1000.0, 4000.0, 16000.0, 32000.0, 64000.0, 128000.0]

BACKENDS = [
    BackendChoice(name="dram"),
    BackendChoice(
        name="sdm",
        options=dict(row_cache_capacity_bytes=1 * MIB, pooled_cache_enabled=False),
    ),
]

STORE_DIR = Path(__file__).resolve().parent.parent / "runs" / "load_sweep"

# p99 more than 2x the zero-queueing baseline marks the saturation knee.
KNEE_FACTOR = 2.0


def build_campaign() -> CampaignSpec:
    base = ScenarioSpec(
        name="load-sweep",
        model=ModelChoice(spec="M1", max_tables_per_group=2, max_rows_per_table=1024),
        workload=WorkloadChoice(num_queries=300, num_users=200),
        traffic=TrafficSpec(mode="open", arrival="poisson", offered_qps=OFFERED_QPS[0]),
        serving=ServingChoice(concurrency=2, warmup_queries=50, store_results=False),
    )
    return CampaignSpec.from_grid(
        base,
        {"backend": BACKENDS, "traffic.offered_qps": OFFERED_QPS},
        name="load-sweep",
    )


def find_knee(results) -> float:
    """First offered QPS whose p99 exceeds KNEE_FACTOR x the lightest load's."""
    baseline = results[0][1].latency["p99"]
    for qps, result in results:
        if result.latency["p99"] > KNEE_FACTOR * baseline:
            return qps
    return float("nan")


def main() -> None:
    campaign = build_campaign()
    store = ExperimentStore(STORE_DIR)
    store.write_campaign(campaign.to_dict())
    outcomes = run_campaign(campaign, runtime=LocalPoolRuntime(workers=4), store=store)
    cached = sum(1 for outcome in outcomes if outcome.cached)
    print(f"{len(outcomes)} points ({cached} served from {store.root})\n")

    for backend in BACKENDS:
        results = [
            (dict(outcome.coords)["traffic.offered_qps"], outcome.result)
            for outcome in outcomes
            if dict(outcome.coords)["backend"] == backend
        ]
        rows = [
            [
                qps,
                round(result.achieved_qps, 1),
                round(result.latency["p99"] * 1e3, 3),
                round(result.queueing["p99"] * 1e3, 3),
                result.dropped_queries,
            ]
            for qps, result in results
        ]
        print(
            format_table(
                ["offered QPS", "achieved QPS", "p99 latency (ms)",
                 "p99 queue delay (ms)", "dropped"],
                rows,
                title=f"open-loop load sweep: {backend.name} backend",
            )
        )
        knee = find_knee(results)
        if knee == knee:  # not NaN
            print(f"{backend.name}: p99 saturation knee near {knee:.0f} offered QPS\n")
        else:
            print(f"{backend.name}: no saturation knee up to {OFFERED_QPS[-1]:.0f} QPS\n")


if __name__ == "__main__":
    main()
