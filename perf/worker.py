"""One workload in one single-threaded process: set-up, passes, trace, checks.

``perf/run.py`` starts this as ``python -m perf.worker`` from the repo root.
The last line of standard output is one JSON document with everything the
run measured; a missing ``src/`` tree (or any other error) is a non-zero exit
with no such line.

Sequence of one run::

    set-up            timed; under the tracer with --trace 1
    fill              warm-start workloads only: one untimed replay
    timed passes      untraced, repeated until --seconds are spent
    2 more set-ups    --trace 0 only, from cold; setup_s is the median of 3
    traced pass       --trace 1 only: hooks installed, same pass once more
    checks            counted into "failed"

End-to-end numbers always come from the untraced passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
sys.path.insert(0, str(ROOT / "src"))

from perf import checks  # noqa: E402
from perf.layers import HOOKS, backend_counters, layer_metrics, ratio  # noqa: E402
from perf.trace import Tracer, totals_between  # noqa: E402
from perf.workloads import WORKLOADS, Workload, scenario_dict  # noqa: E402

clock = time.perf_counter
SLO_P99_SECONDS = 0.025


@dataclass
class PassResult:
    """What one serve call (or one ``run_campaign`` call) produced."""

    wall_s: float
    #: Host operations attempted: queries offered, or campaign points.
    ops: int
    offered: int
    served: int
    shed: int
    sim: Dict[str, float]
    digest: str
    facts: Dict[str, float] = field(default_factory=dict)
    outcomes: Sequence[Any] = ()


def _digest(document: Any) -> str:
    # json renders floats with repr, which round-trips every bit.
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class ServeCase:
    """A serve workload: one query stream through one ``ServingEngine``."""

    def __init__(self, workload: Workload, spec_dict: Dict[str, Any]) -> None:
        self.workload = workload
        self.spec_dict = spec_dict

    def setup(self) -> None:
        import repro.workload.generator as generator
        from repro.api import ScenarioSpec, Session

        self.spec = ScenarioSpec.from_dict(self.spec_dict)
        self.session = Session(self.spec)
        self.engine = self.session.engine  # builds the model and the backend
        self.queries = self.session.queries()
        traffic = self.spec.traffic
        self.arrivals = None
        if traffic.mode == "open":
            self.arrivals = generator.generate_arrival_times(
                len(self.queries),
                process=traffic.arrival,
                offered_qps=traffic.offered_qps,
                seed=traffic.seed,
            )
        self.generated_queries = len(self.queries)

    def warm(self) -> None:
        if self.workload.start == "warm":
            self.run_pass()

    def prepare(self) -> None:
        backend = self.session.backend
        if self.workload.start == "warm":
            backend.reset_stats()
            backend.reset_queues()
        else:
            backend.restore_pristine()

    def run_pass(self) -> PassResult:
        from repro.serving.engine import ServingEngine

        engine = ServingEngine(self.engine, self.spec.serving.concurrency, store_results=False)
        traffic = self.spec.traffic
        start = clock()
        if self.arrivals is None:
            result = engine.run_closed_loop(self.queries)
        else:
            result = engine.run_open_loop(
                self.queries,
                self.arrivals,
                queue_depth=traffic.queue_depth,
                serve_batch=traffic.serve_batch,
            )
        wall_s = clock() - start
        shed = getattr(result, "dropped_queries", 0)
        percentiles = result.percentiles()
        tiers = getattr(self.session.backend, "tier_summaries", list)()
        return PassResult(
            wall_s=wall_s,
            ops=len(self.queries),
            offered=len(self.queries),
            served=result.num_queries,
            shed=shed,
            sim={
                "sim_qps": result.achieved_qps,
                "sim_p99_ms": percentiles["p99"] * 1e3,
                "sim_served_share": result.num_queries / len(self.queries),
            },
            digest=_digest([result.makespan_seconds, result.latencies, shed, tiers]),
            facts={
                "sim_p50_ms": percentiles["p50"] * 1e3,
                "sim_queue_wait_share": ratio(
                    sum(getattr(result, "queue_delays", ())), sum(result.latencies)
                ),
            },
        )

    def lookups_per_query(self) -> float:
        return statistics.fmean(query.total_user_lookups() for query in self.queries)

    def counters(self) -> Dict[str, float]:
        return backend_counters(self.session.backend)

    def final_checks(self, last: PassResult) -> List[checks.Check]:
        return [checks.scores_match_dram(self.session, self.queries)]

    def close(self) -> None:
        pass


class CampaignCase:
    """The campaign workload: one serial ``run_campaign`` over the grid."""

    def __init__(self, workload: Workload, spec_dict: Dict[str, Any], grid: Dict[str, List[Any]]) -> None:
        self.workload = workload
        self.spec_dict = spec_dict
        self.grid = grid
        self.store_root: Optional[Path] = None

    def _fresh_store(self) -> None:
        import repro.runtime as runtime

        self.close()
        OUT.mkdir(parents=True, exist_ok=True)
        self.store_root = Path(tempfile.mkdtemp(prefix="store-", dir=OUT))
        self.store = runtime.ExperimentStore(self.store_root)
        self.store.write_campaign(self.campaign.to_dict())

    def setup(self) -> None:
        import repro.runtime as runtime
        from repro.api import ScenarioSpec

        self.base = ScenarioSpec.from_dict(self.spec_dict)
        self.campaign = runtime.CampaignSpec.from_grid(
            self.base, self.grid, name=self.workload.name, replicates=self.workload.replicates
        )
        points = self.campaign.points()
        for point in points:
            point.spec_hash()
        self.generated_queries = len(points) * self.base.workload.num_queries
        self._fresh_store()

    def warm(self) -> None:
        pass

    def prepare(self) -> None:
        from repro.runtime.runtimes import clear_backend_cache

        clear_backend_cache()
        self._fresh_store()

    def run_pass(self) -> PassResult:
        import repro.runtime as runtime

        start = clock()
        outcomes = runtime.run_campaign(self.campaign, runtime="serial", store=self.store)
        wall_s = clock() - start
        results = [outcome.result for outcome in outcomes if outcome.ok]
        served = sum(result.num_queries for result in results)
        shed = sum(result.dropped_queries for result in results)
        offered = len(outcomes) * self.base.workload.num_queries
        by_rate: Dict[float, bool] = {}
        for outcome in outcomes:
            rate = dict(outcome.coords)["traffic.offered_qps"]
            meets = outcome.ok and outcome.result.dropped_queries == 0 and (
                outcome.result.latency["p99"] <= SLO_P99_SECONDS
            )
            by_rate[rate] = by_rate.get(rate, True) and meets
        queue_wait = sum(
            result.queueing["mean"] * result.num_queries for result in results if result.queueing
        )
        return PassResult(
            wall_s=wall_s,
            ops=len(outcomes),
            offered=offered,
            served=served,
            shed=shed,
            sim={
                "sim_qps": ratio(served, sum(result.makespan_seconds for result in results)),
                # A point's p99 has n = 32; the mean over points is the steady
                # aggregate (their maximum swings by a quarter across seeds).
                "sim_p99_ms": statistics.fmean(result.latency["p99"] for result in results) * 1e3,
                "sim_served_share": served / offered,
            },
            digest=_digest([outcome.metrics for outcome in outcomes if outcome.ok]),
            facts={
                "sim_p50_ms": statistics.median(result.latency["p50"] for result in results) * 1e3,
                "sim_queue_wait_share": ratio(
                    queue_wait, sum(result.latency["mean"] * result.num_queries for result in results)
                ),
                "sim_slo_rate_qps": max((rate for rate, ok in by_rate.items() if ok), default=0.0),
                "points": len(outcomes),
                "failed_points": sum(outcome.failed for outcome in outcomes),
                "retries": sum(outcome.attempts - 1 for outcome in outcomes),
            },
            outcomes=outcomes,
        )

    def lookups_per_query(self) -> float:
        from repro.api import Session

        queries = Session(self.base).queries()
        return statistics.fmean(query.total_user_lookups() for query in queries)

    def counters(self) -> Dict[str, float]:
        return {}  # collected per point by the Session.run hook

    def final_checks(self, last: PassResult) -> List[checks.Check]:
        return [
            checks.points_ok(last.outcomes),
            checks.store_rereads(self.store_root, last.outcomes),
        ]

    def close(self) -> None:
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None


def build_case(workload: Workload, seed: int, smoke: bool):
    spec_dict = scenario_dict(workload, seed, smoke)
    if workload.kind == "campaign":
        return CampaignCase(workload, spec_dict, workload.smoke_grid if smoke else workload.grid)
    return ServeCase(workload, spec_dict)


def traced_pass(case: Any, tracer: Tracer, facts: Dict[str, float]) -> Tuple[PassResult, Dict[str, float]]:
    """Run the pass once more under the hooks; return it and the per-layer metrics."""
    tracer.install(HOOKS)
    case.prepare()
    before = tracer.totals()
    traced = case.run_pass()
    root = totals_between(before, tracer.totals())
    tracer.uninstall()
    tracer.add_counters(case.counters())
    facts = {
        **facts,
        **traced.facts,
        "generated_queries": case.generated_queries,
        "lookups_per_query": case.lookups_per_query(),
        "offered": traced.offered,
        "served": traced.served,
        "shed": traced.shed,
        "traced_wall_s": traced.wall_s,
        "missing_hooks": len(tracer.missing),
    }
    per_layer = layer_metrics(tracer.totals(), root, tracer.counters, facts)
    tracer.dump(OUT / f"{case.workload.name}.trace.json", per_layer=per_layer)
    return traced, per_layer


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    start = clock()
    import repro.api  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.serving.engine  # noqa: F401

    import_s = clock() - start
    workload = WORKLOADS[name]
    tracer = Tracer()

    # The traced run records its set-up as spans.
    if trace:
        tracer.install(HOOKS)
    case = build_case(workload, seed, smoke)
    start = clock()
    case.setup()
    setup_times = [clock() - start]
    tracer.uninstall()

    try:
        case.warm()
        passes: List[PassResult] = []
        spent = 0.0
        while True:
            case.prepare()
            passes.append(case.run_pass())
            spent += passes[-1].wall_s
            if spent + passes[-1].wall_s > seconds:
                break
        # Peak memory of one session's life; the repeated set-ups below are
        # the benchmark's doing and must not count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not (trace or smoke):
            for _ in range(2):
                again = build_case(workload, seed, smoke)
                gc.collect()
                start = clock()
                again.setup()
                setup_times.append(clock() - start)
                again.close()

        walls = [p.wall_s for p in passes]
        first, last = passes[0], passes[-1]
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "wall_qps": statistics.median(p.served / p.wall_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
            **first.sim,
        }
        results = [checks.queries_conserved(first.offered, first.served, first.shed)]
        per_layer: Dict[str, float] = {}
        expectations: List[Dict[str, Any]] = []
        if trace:
            last, per_layer = traced_pass(
                case,
                tracer,
                {
                    "import_s": import_s,
                    "untraced_wall_s": statistics.median(walls),
                    "pass_spread": (max(walls) - min(walls)) / statistics.median(walls),
                },
            )
            passes.append(last)
            results.append(checks.shares_sum_to_one(per_layer))
            if not smoke:
                expectations = checks.evaluate_expectations(workload.expect, per_layer)
        results.append(checks.digests_equal([p.digest for p in passes], trace))
        # A campaign's backends are reachable only through the traced hook.
        counters = tracer.counters if trace else case.counters()
        if counters:
            results.append(checks.ios_conserved(counters))
        results.extend(case.final_checks(last))
    finally:
        case.close()

    failed = sum(check.failed_ops for check in results)
    reference_queries = min(checks.REFERENCE_QUERIES, first.offered) if workload.kind == "serve" else 0
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "start": workload.start,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {
            "setups": len(setup_times),
            "passes": len(walls),
            "offered_per_pass": first.offered,
            "latency_samples": first.served,
        },
        "setup_times_s": setup_times,
        "pass_wall_s": walls,
        "checks": [check.to_dict() for check in results],
        "expectations": expectations,
        "missing_hooks": tracer.missing,
        "attempted": sum(p.ops for p in passes) + reference_queries,
        "failed": failed,
        "correct": failed == 0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    document = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
