"""Serving-configuration tuning: the paper's Tuning APIs in action.

The paper picks its Tuning APIs (row-cache size, pooled-cache LenThreshold,
and the tier list: SM technology and the DRAM budget that homes tables in
fast memory) at deployment time, e.g. with an auto-tuning tool.  Every one
of them is an SDM backend option, so the tuning search is a campaign: the
grid below crosses four hosts with two row-cache sizes and two
LenThresholds, and the 16 points are ranked from their stored metrics --
first whether the point meets the p95 latency target (``meets_slo``), then
``achieved_qps``, then ``latency_seconds.p95``.  Points whose three values
are equal share a rank (printed ``1=``), and a tie for the top is printed as
a tie, not as one "best" configuration.

Scale: a scaled M2 at 4 tables per group x 16,384 rows, 200 queries after
40 warm-up queries.  At this scale the swept row caches give different
hit rates (0.343 and 0.416 for 128 KiB and 1 MiB with LenThreshold 1 and no
DRAM budget); at 1,024 rows and 60 queries the two sizes gave equal hit
rates on every host.  The LenThresholds 1 and 24 straddle the user tables'
average pooling factors (17.8-28.4), so the higher one keeps part of the
requests out of the pooled cache; 1 and 8 gave identical results.

Run with:  python examples/tuning_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CampaignSpec, ScenarioSpec, format_table, run_campaign
from repro.api.results import metric_value
from repro.sim.units import KIB, MIB


def host(sm: str, capacity: str, dram_budget: int) -> list:
    """A tier list: DRAM homing ``dram_budget`` bytes of tables over 2 SM devices."""
    return [
        {"technology": "dram", "capacity": dram_budget},
        {"technology": sm, "capacity": capacity, "devices": 2},
    ]


#: Nand Flash and Optane hosts (2 devices each), without and with a DRAM budget.
HOSTS = [
    host(sm, capacity, budget)
    for sm, capacity in (("nand", "4TB"), ("optane", "800GB"))
    for budget in (0, 2 * MIB)
]

SPEC = {
    "name": "tuning-study",
    "model": {
        "spec": "M2", "max_tables_per_group": 4, "max_rows_per_table": 16384, "item_batch": 4
    },
    "backend": {"name": "sdm", "options": {"pooled_cache_capacity_bytes": 512 * KIB}},
    "workload": {"num_queries": 200, "num_users": 200, "seed": 1},
    "serving": {"concurrency": 1, "warmup_queries": 40, "slo_percentile": 95, "slo_budget_ms": 10},
}

GRID = {
    "backend.options.tiers": HOSTS,
    "backend.options.row_cache_capacity_bytes": [128 * KIB, 1 * MIB],
    "backend.options.pooled_len_threshold": [1, 24],
}

#: Stored metric paths the ranking reads, most significant first, each with
#: whether a higher value ranks better.
RANK_BY = (("meets_slo", True), ("achieved_qps", True), ("latency_seconds.p95", False))


def build_campaign() -> CampaignSpec:
    return CampaignSpec.from_grid(ScenarioSpec.from_dict(SPEC), GRID)


def score(outcome) -> tuple:
    """The ranking key of one point; equal keys are ties."""
    stored = outcome.result.to_dict()
    return tuple(
        metric_value(stored, path) * (1 if higher else -1) for path, higher in RANK_BY
    )


def rank(outcomes) -> list:
    """``(rank label, outcome)`` best first; tied points share a ``N=`` label."""
    ordered = sorted(outcomes, key=score, reverse=True)
    keys = [score(outcome) for outcome in ordered]
    ranked = []
    for outcome, key in zip(ordered, keys):
        position = keys.index(key) + 1
        ranked.append((f"{position}=" if keys.count(key) > 1 else str(position), outcome))
    return ranked


def knobs(outcome) -> tuple:
    """(SM technology, DRAM budget KiB, row cache KiB, LenThreshold) of one point."""
    coords = dict(outcome.coords)
    tiers = coords["backend.options.tiers"]
    return (
        tiers[1]["technology"],
        tiers[0]["capacity"] // KIB,
        coords["backend.options.row_cache_capacity_bytes"] // KIB,
        coords["backend.options.pooled_len_threshold"],
    )


def describe(outcome) -> str:
    sm, budget, row_cache, threshold = knobs(outcome)
    return (
        f"{sm} with {budget} KiB DRAM budget, {row_cache} KiB row cache, "
        f"LenThreshold {threshold}"
    )


def report(ranked) -> str:
    rows = []
    for label, outcome in ranked:
        result = outcome.result
        rows.append(
            [
                label,
                *knobs(outcome),
                result.backend_stats["row cache hit rate"],
                result.achieved_qps,
                result.latency["p95"] * 1e3,
                "yes" if result.meets_slo else "no",
            ]
        )
    table = format_table(
        ["rank", "SM", "DRAM budget (KiB)", "row cache (KiB)", "LenThreshold",
         "row-cache hit rate", "QPS", "p95 (ms)", "meets p95 target"],
        rows,
        title=f"tuning candidates, best first (of {len(ranked)} evaluated)",
        float_fmt=".3f",
    )
    best = [outcome for label, outcome in ranked if label in ("1", "1=")]
    qps = best[0].result.achieved_qps
    if len(best) == 1:
        verdict = f"best configuration: {describe(best[0])} -> {qps:.1f} QPS"
    else:
        verdict = f"{len(best)} configurations tie for best at {qps:.1f} QPS:\n" + "\n".join(
            f"  {describe(outcome)}" for outcome in best
        )
    return f"{table}\n\n{verdict}"


def main() -> None:
    print(report(rank(run_campaign(build_campaign()))))


if __name__ == "__main__":
    main()
