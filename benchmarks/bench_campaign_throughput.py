"""Campaign throughput: worker-resident backend reuse on vs off.

Not a paper table — this benchmarks the campaign runtime layer
(:mod:`repro.runtime.runtimes`).  A model-heavy traffic-axis grid is the
regime backend reuse targets: every point shares the same model and backend
sections (one ``backend_hash``), differing only in offered load, so with
reuse enabled the worker builds the SDM once and restores it to pristine
state per point instead of regenerating tables, placement and tier chain
six times.  Both modes run the identical campaign on the serial runtime and
the resulting per-point metrics must be bit-for-bit identical — reuse is an
execution strategy, not a model change.

Run standalone to write the comparison as JSON::

    python benchmarks/bench_campaign_throughput.py --out runs/campaign_throughput.json

which is what the ``campaign-smoke`` CI job uploads.  The CI gate is an
absolute floor on the reuse-on points/sec (``--min-points-per-sec``), not
the reuse-on/reuse-off ratio: the ratio falls whenever the *slow* side gets
cheaper (array-native set-up took reuse-off from ~1.5 to ~3.5 points/sec
and the ratio from ~3.5x to ~2.6x while reuse-on rose from ~6 to ~9), so a
ratio gate fails for exactly the wrong reason.  The ratio is still reported.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CampaignSpec, ScenarioSpec, format_table, run_campaign  # noqa: E402
from repro.api import ModelChoice, ServingChoice, WorkloadChoice  # noqa: E402
from repro.api.spec import TrafficSpec  # noqa: E402
from repro.runtime.runtimes import clear_backend_cache  # noqa: E402

# Model-heavy on purpose: large tables make model+backend construction the
# dominant per-point cost, which is exactly what reuse amortises.  The
# traffic axis leaves the backend_hash constant across all six points.
MODEL_ROWS = 8192
MODEL_TABLES = 6
NUM_QUERIES = 16
OFFERED_QPS_AXIS = [200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0]


def build_campaign() -> CampaignSpec:
    base = ScenarioSpec(
        name="bench-campaign-throughput",
        model=ModelChoice(
            spec="M1",
            max_tables_per_group=MODEL_TABLES,
            max_rows_per_table=MODEL_ROWS,
        ),
        workload=WorkloadChoice(num_queries=NUM_QUERIES, num_users=60),
        traffic=TrafficSpec(mode="open", arrival="poisson", offered_qps=500.0),
        serving=ServingChoice(concurrency=1, warmup_queries=0),
    )
    return CampaignSpec.from_grid(
        base,
        {"traffic.offered_qps": OFFERED_QPS_AXIS},
        name="bench-campaign-throughput",
    )


def run_comparison(repeats: int = 1) -> dict:
    """Time the same campaign with backend reuse off, then on.

    Both passes use the serial runtime so the comparison isolates the reuse
    mechanism from pool scheduling; the resident-backend cache is cleared
    before every timed pass, so the reuse number includes the one first-point
    build the cache amortises across the grid.
    """
    campaign = build_campaign()
    num_points = len(campaign.points())
    records = {}
    outcomes_by_mode = {}
    for mode, reuse in (("reuse-off", False), ("reuse-on", True)):
        best_pps = 0.0
        outcomes = None
        for _ in range(repeats):
            clear_backend_cache()
            started = time.perf_counter()
            outcomes = run_campaign(
                campaign, runtime="serial", reuse_backends=reuse
            )
            elapsed = time.perf_counter() - started
            best_pps = max(best_pps, num_points / elapsed)
        clear_backend_cache()
        assert outcomes is not None
        outcomes_by_mode[mode] = outcomes
        records[mode] = {
            "mode": mode,
            "points_per_second": best_pps,
            "num_points": num_points,
        }
    # Reuse is an execution strategy: every per-point result dict must be
    # bit-for-bit identical or the speedup is meaningless.
    fresh = [o.metrics for o in outcomes_by_mode["reuse-off"]]
    reused = [o.metrics for o in outcomes_by_mode["reuse-on"]]
    if fresh != reused:
        raise AssertionError(
            "backend reuse changed a per-point result; the pristine-restore "
            "contract is broken"
        )
    off, on = records["reuse-off"], records["reuse-on"]
    return {
        "benchmark": "bench_campaign_throughput",
        "num_points": num_points,
        "model_rows": MODEL_ROWS,
        "model_tables": MODEL_TABLES,
        "num_queries": NUM_QUERIES,
        "reuse_off_pps": off["points_per_second"],
        "reuse_on_pps": on["points_per_second"],
        "speedup": on["points_per_second"] / off["points_per_second"],
        "records": list(records.values()),
    }


def _table(payload: dict) -> str:
    rows = [
        [record["mode"], round(record["points_per_second"], 2), record["num_points"]]
        for record in payload["records"]
    ]
    rows.append(["speedup", f"{payload['speedup']:.1f}x", ""])
    return format_table(
        ["backend reuse", "points/sec", "points"],
        rows,
        title=(
            f"campaign throughput: {payload['num_points']}-point traffic grid, "
            f"{payload['model_tables']}x{payload['model_rows']}-row tables"
        ),
    )


def bench_campaign_throughput(benchmark):
    from _util import emit, run_once

    payload = run_once(benchmark, run_comparison, repeats=1)
    assert payload["reuse_on_pps"] > payload["reuse_off_pps"]
    emit("campaign throughput (worker-resident backend reuse)", _table(payload))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="FILE", help="write the comparison as JSON")
    parser.add_argument(
        "--repeats", type=int, default=1, help="timed passes per mode (best is kept)"
    )
    parser.add_argument(
        "--min-points-per-sec",
        type=float,
        help="exit non-zero when the reuse-on points/sec falls below this",
    )
    args = parser.parse_args()
    payload = run_comparison(repeats=args.repeats)
    print(_table(payload))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2))
        print(f"wrote {out}", file=sys.stderr)
    floor = args.min_points_per_sec
    if floor is not None and payload["reuse_on_pps"] < floor:
        print(
            f"reuse-on {payload['reuse_on_pps']:.2f} points/sec below the "
            f"--min-points-per-sec gate {floor:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
