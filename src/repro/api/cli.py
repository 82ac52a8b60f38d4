"""``python -m repro`` — run scenarios from the command line.

Subcommands::

    python -m repro run                # serve an M1 SDM scenario end to end
    python -m repro run --backend dram --queries 100 --json
    python -m repro run --spec scenario.json --option num_devices=4
    python -m repro run --arrival poisson --offered-qps 120   # open loop
    python -m repro run --tiers dram:64KiB,cxl:1MiB,nand:1GiB # 3-tier hierarchy
    python -m repro sweep --param serving.concurrency --values 1,2,4
    python -m repro sweep --param tiers.1.capacity --values 256KiB,1MiB,4MiB \\
        --tiers dram:64KiB,cxl:1MiB,nand:1GiB
    python -m repro list-devices
    python -m repro sweep --param traffic.offered_qps --values 40,80,160
    python -m repro campaign --grid backend.name=dram,sdm \\
        --grid serving.concurrency=1,2 --parallel 4 --out runs/demo
    python -m repro campaign --out runs/demo --resume ...   # skip done points
    python -m repro compare runs/baseline runs/demo
    python -m repro lint src examples benchmarks
    python -m repro list-backends

Output is either the :mod:`repro.analysis.reporting` table format (default)
or JSON (``--json``) for downstream tooling.  ``compare`` exits non-zero when
it finds regressions, so it slots directly into CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.reporting import format_table
from repro.api.registry import available_backends
from repro.api.results import campaign_table, scenario_metrics, sweep_table
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.hierarchy import TECHNOLOGY_ALIASES, parse_tiers
from repro.lint.cli import add_lint_parser
from repro.sim.units import MICROSECOND, format_bytes
from repro.storage.spec import TABLE1_SPECS
from repro.runtime import (
    RUNTIME_NAMES,
    CampaignSpec,
    ExperimentStore,
    LocalPoolRuntime,
    MetricSpec,
    Runtime,
    compare_runs,
    run_campaign,
)


def _parse_value(text: str) -> Any:
    """Best-effort typing of CLI values: int, float, bool, then string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _parse_options(pairs: Sequence[str]) -> Dict[str, Any]:
    options: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--option expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        options[key] = _parse_value(raw)
    return options


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", metavar="FILE", help="JSON ScenarioSpec to start from")
    parser.add_argument("--name", help="scenario name")
    parser.add_argument("--model", help="paper model: M1, M2, M3 or fig1")
    parser.add_argument("--tables", type=int, help="max tables per group in the scaled model")
    parser.add_argument("--rows", type=int, help="max rows per table in the scaled model")
    parser.add_argument("--backend", help="registered backend name (see list-backends)")
    parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. --option num_devices=4",
    )
    parser.add_argument(
        "--tiers",
        metavar="SPEC",
        help=(
            "memory hierarchy, fastest first: tech:capacity[:cache] entries "
            "joined by commas, e.g. dram:64KiB,cxl:1MiB,nand:1GiB "
            "(see list-devices for technologies)"
        ),
    )
    parser.add_argument("--queries", type=int, help="number of queries to serve")
    parser.add_argument("--users", type=int, help="user population size")
    parser.add_argument("--item-batch", type=int, help="candidate items ranked per query")
    parser.add_argument("--seed", type=int, help="workload and model seed")
    parser.add_argument("--concurrency", type=int, help="serving streams per host")
    parser.add_argument("--warmup", type=int, help="warmup queries before measurement")
    parser.add_argument(
        "--arrival",
        choices=["closed", "poisson", "constant"],
        help="traffic shape: closed loop (default) or an open-loop arrival process",
    )
    parser.add_argument(
        "--offered-qps",
        type=float,
        help="open-loop offered load in arrivals per second (implies --arrival poisson)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        help="open-loop admission queue capacity, 0 sheds immediately (implies --arrival poisson)",
    )
    parser.add_argument(
        "--serve-batch",
        type=int,
        help="open-loop queries a freed stream drains per dispatch (implies --arrival poisson)",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        help="simulated seconds between timeline metric windows (0 disables)",
    )
    parser.add_argument("--platform", help="host platform for power accounting, e.g. HW-SS")
    parser.add_argument("--baseline-platform", help="baseline platform to compare power against")
    parser.add_argument("--qps-per-host", type=float, help="analytic per-host QPS for fleet sizing")
    parser.add_argument(
        "--baseline-qps-per-host", type=float, help="baseline platform's per-host QPS"
    )
    parser.add_argument("--fleet-qps", type=float, help="region-level QPS demand (Eq. 7)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")


_SCENARIO_PATHS = {
    "name": "name",
    "model": "model.spec",
    "tables": "model.max_tables_per_group",
    "rows": "model.max_rows_per_table",
    "backend": "backend.name",
    "queries": "workload.num_queries",
    "users": "workload.num_users",
    "seed": "workload.seed",
    "concurrency": "serving.concurrency",
    "warmup": "serving.warmup_queries",
    "platform": "serving.platform",
    "baseline_platform": "serving.baseline_platform",
    "qps_per_host": "serving.qps_per_host",
    "baseline_qps_per_host": "serving.baseline_qps_per_host",
    "fleet_qps": "serving.fleet_qps",
    "sample_interval": "telemetry.sample_interval",
}


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
    else:
        spec = ScenarioSpec()
    for attr, path in _SCENARIO_PATHS.items():
        value = getattr(args, attr)
        if value is not None:
            spec = spec.replace(path, value)
    if args.item_batch is not None:
        spec = spec.replace("model.item_batch", args.item_batch)
        spec = spec.replace("workload.item_batch", args.item_batch)
    if args.seed is not None:
        spec = spec.replace("model.seed", args.seed)
        spec = spec.replace("traffic.seed", args.seed)
    # Set the open-loop parameters before flipping the mode: TrafficSpec
    # validates that open mode has an offered load the moment it is built.
    if args.offered_qps is not None:
        spec = spec.replace("traffic.offered_qps", args.offered_qps)
    if args.queue_depth is not None:
        spec = spec.replace("traffic.queue_depth", args.queue_depth)
    if args.serve_batch is not None:
        spec = spec.replace("traffic.serve_batch", args.serve_batch)
    if args.arrival is not None:
        if args.arrival != "closed":
            spec = spec.replace("traffic.arrival", args.arrival)
        spec = spec.replace("traffic.mode", "closed" if args.arrival == "closed" else "open")
    elif (
        args.offered_qps is not None
        or args.queue_depth is not None
        or args.serve_batch is not None
    ):
        # An offered load (or queue depth / drain batch) only means something
        # in open loop; silently running closed-loop would ignore it.
        # `--arrival closed` opts out explicitly.
        spec = spec.replace("traffic.mode", "open")
    if args.tiers is not None:
        # Normalise to a list of mappings so grid axes like tiers.1.capacity
        # can address individual entries, and default the backend to the
        # hierarchy-aware one unless the user picked something explicitly.
        tier_dicts = [tier.to_dict() for tier in parse_tiers(args.tiers)]
        spec = spec.replace("backend.options.tiers", tier_dicts)
        if args.backend is None and spec.backend.name == "sdm":
            spec = spec.replace("backend.name", "tiered")
    for key, value in _parse_options(args.option).items():
        spec = spec.replace(f"backend.options.{key}", value)
    # Telemetry output flags (run subcommand only) imply the matching knobs.
    if getattr(args, "trace_out", None):
        spec = spec.replace("telemetry.trace", True)
    if getattr(args, "timeline_out", None) and spec.telemetry.sample_interval <= 0:
        raise ValueError(
            "--timeline-out needs a sampling cadence: pass --sample-interval "
            "(simulated seconds) or set telemetry.sample_interval in --spec"
        )
    return spec


def _write_json(path: str, payload: Any, label: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"{label}: {out}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    result = Session(_spec_from_args(args)).run()
    if args.trace_out:
        _write_json(args.trace_out, result.trace, "trace")
    if args.timeline_out:
        _write_json(args.timeline_out, result.timeline, "timeline")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported here: keeps the plain-CLI import path free of repro.obs.
    from repro.obs.report import render_report, report_dict

    target = Path(args.target)
    if target.is_dir():
        store = ExperimentStore(target)
        if not store.exists():
            raise ValueError(
                f"no campaign results at {args.target!r} (expected results.jsonl)"
            )
        records = sorted(store, key=lambda record: record.get("index", 0))
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "scenario": record.get("scenario"),
                            "coords": record.get("coords"),
                            "report": report_dict(record["result"]),
                        }
                        for record in records
                    ],
                    indent=2,
                )
            )
            return 0
        for record in records:
            print(render_report(record["result"]))
            print()
        return 0
    with open(target, encoding="utf-8") as handle:
        result_dict = json.load(handle)
    if not isinstance(result_dict, dict) or "scenario" not in result_dict:
        raise ValueError(
            f"{args.target!r} is not a stored result: expected the JSON of "
            f"'run --json' or a campaign --out directory"
        )
    if args.json:
        print(json.dumps(report_dict(result_dict), indent=2))
    else:
        print(render_report(result_dict))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = [_parse_value(token) for token in args.values.split(",") if token]
    if not values:
        raise ValueError("--values must list at least one value")
    if not args.json and args.metric not in scenario_metrics():
        # Validate before the (expensive) sweep runs, not after.
        raise ValueError(
            f"unknown sweep metric {args.metric!r}; choices: {scenario_metrics()}"
        )
    spec = _spec_from_args(args)
    if args.param == "traffic.offered_qps" and spec.traffic.mode == "closed":
        if args.arrival == "closed":
            raise ValueError(
                "sweeping traffic.offered_qps needs open-loop traffic, "
                "but --arrival closed was given"
            )
        # Sweeping the offered load implies open-loop traffic; seed the spec
        # with the first swept value so the open-mode validation passes.
        spec = spec.replace("traffic.offered_qps", values[0])
        spec = spec.replace("traffic.mode", "open")
    points = Session(spec).sweep(args.param, values)
    if args.json:
        print(
            json.dumps(
                [
                    {"param": p.param, "value": p.value, "result": p.result.to_dict()}
                    for p in points
                ],
                indent=2,
            )
        )
    else:
        print(sweep_table(points, metric=args.metric))
    return 0


def _parse_grid(pairs: Sequence[str]) -> List[Tuple[str, List[Any]]]:
    axes: List[Tuple[str, List[Any]]] = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--grid expects param=v1,v2,..., got {pair!r}")
        param, _, raw = pair.partition("=")
        values = [_parse_value(token) for token in raw.split(",") if token]
        if not values:
            raise ValueError(f"--grid {param!r} must list at least one value")
        axes.append((param, values))
    return axes


def _campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    axes = _parse_grid(args.grid)
    spec = _spec_from_args(args)
    grid_params = {param for param, _ in axes}
    if spec.traffic.mode == "closed" and "traffic.offered_qps" in grid_params:
        if args.arrival == "closed":
            raise ValueError(
                "a traffic.offered_qps grid axis needs open-loop traffic, "
                "but --arrival closed was given"
            )
        # An offered-load axis implies open-loop traffic; seed the spec with
        # the axis' first value so the open-mode validation passes.
        first = next(values[0] for param, values in axes if param == "traffic.offered_qps")
        spec = spec.replace("traffic.offered_qps", first)
        spec = spec.replace("traffic.mode", "open")
    return CampaignSpec.from_grid(
        spec, dict(axes), name=spec.name, replicates=args.replicates
    )


class _CampaignProgress:
    """Per-point campaign progress with elapsed time and an ETA, on stderr.

    Wall-clock readings come from :func:`repro.obs.profile.wall_seconds` (the
    audited module) and shape *display only* — never results.  Lines are
    throttled to one per ``min_interval`` seconds, except the first and last
    point, which always print.
    """

    def __init__(self, min_interval: float = 0.5) -> None:
        # Imported here: keeps the plain-CLI import path free of repro.obs.
        from repro.obs.profile import wall_seconds

        self._wall = wall_seconds
        self._min_interval = min_interval
        self._started = wall_seconds()
        self._last_print: Optional[float] = None
        self._ran = 0
        self._cached = 0
        self._failed = 0

    def __call__(self, outcome: Any, done: int, total: int) -> None:
        if outcome.failed:
            self._failed += 1
        elif outcome.cached:
            self._cached += 1
        elif outcome.ok:
            self._ran += 1
        now = self._wall()
        always_print = done >= total or outcome.failed
        if (
            not always_print
            and self._last_print is not None
            and now - self._last_print < self._min_interval
        ):
            return
        self._last_print = now
        elapsed = now - self._started
        if outcome.cached:
            origin = "store"
        elif outcome.ok:
            origin = "ran"
        else:
            origin = outcome.status

        line = (
            f"[{done}/{total}] {outcome.scenario} ({origin}) | "
            f"{self._ran} ran, {self._cached} from store"
        )
        if self._failed:
            line += f", {self._failed} failed"
        line += f" | {elapsed:.1f}s elapsed"
        if done < total and self._ran:
            eta = elapsed / self._ran * (total - done)
            line += f" | eta {eta:.1f}s"
        print(line, file=sys.stderr)


def _runtime_from_args(args: argparse.Namespace) -> Union[str, Runtime]:
    """``--parallel N`` sizes the pool; it is the pool unless ``--runtime``
    names another engine."""
    if args.parallel < 1:
        raise ValueError(f"--parallel must be positive: {args.parallel}")
    if args.parallel > 1 and args.runtime in (None, "pool"):
        return LocalPoolRuntime(workers=args.parallel)
    return args.runtime or "serial"


def _cmd_campaign(args: argparse.Namespace) -> int:
    campaign = _campaign_from_args(args)
    metrics = args.metric or ["achieved_qps"]
    if not args.json:
        # Validate before the (expensive) grid runs, not after.
        for metric in metrics:
            if metric not in scenario_metrics():
                raise ValueError(
                    f"unknown metric {metric!r}; valid ScenarioResult metrics: "
                    f"{scenario_metrics()}"
                )
    if args.resume and not args.out:
        raise ValueError("--resume needs --out pointing at an existing run directory")
    store = None
    if args.out:
        store = ExperimentStore(args.out)
        if store.exists() and len(store) and not args.resume:
            raise ValueError(
                f"{store.root} already holds {len(store)} result(s); "
                f"pass --resume to reuse them or a fresh --out"
            )
        store.write_campaign(campaign.to_dict())

    outcomes = run_campaign(
        campaign,
        store=store,
        progress=_CampaignProgress() if not args.quiet else None,
        runtime=_runtime_from_args(args),
        retries=args.retries,
        reuse_backends=not args.no_reuse,
    )
    succeeded = [outcome for outcome in outcomes if outcome.ok]
    quarantined = [outcome for outcome in outcomes if outcome.failed]
    planned = [outcome for outcome in outcomes if outcome.skipped]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "index": outcome.index,
                        "spec_hash": outcome.spec_hash,
                        "coords": [list(pair) for pair in outcome.labels],
                        "cached": outcome.cached,
                        "status": outcome.status,
                        "attempts": outcome.attempts,
                        "error": outcome.error,
                        "error_type": outcome.error_type,
                        "result": outcome.metrics if outcome.ok else None,
                    }
                    for outcome in outcomes
                ],
                indent=2,
            )
        )
    elif planned and not succeeded and not quarantined:
        # Dry run: show the plan instead of an (empty) metrics table.
        print(f"campaign: {campaign.name} — dry run, {len(planned)} point(s) planned")
        for outcome in planned:
            coords = ", ".join(f"{key}={value}" for key, value in outcome.labels)
            print(f"  [{outcome.index}] {outcome.scenario} ({coords})")
    else:
        if succeeded:
            print(
                campaign_table(succeeded, metrics, title=f"campaign: {campaign.name}")
            )
        if store is not None:
            executed = sum(1 for outcome in succeeded if not outcome.cached)
            print(
                f"{executed} point(s) executed, {len(succeeded) - executed} from "
                f"{store.root}",
                file=sys.stderr,
            )
    if quarantined:
        print(
            f"{len(quarantined)} point(s) quarantined after failure:", file=sys.stderr
        )
        for outcome in quarantined:
            print(
                f"  [{outcome.index}] {outcome.scenario}: "
                f"{outcome.error_type}: {outcome.error} "
                f"({outcome.attempts} attempt(s))",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    for root in (args.baseline, args.candidate):
        if not ExperimentStore(root).exists():
            raise ValueError(f"no campaign results at {root!r} (expected results.jsonl)")
    metrics = [MetricSpec.parse(text) for text in args.metric] if args.metric else None
    comparison = compare_runs(
        args.baseline, args.candidate, metrics=metrics, tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(comparison.table())
    # CI contract: a regression is a failing exit code, not just a table row.
    return 1 if comparison.regressions else 0


def _cmd_list_devices(args: argparse.Namespace) -> int:
    """Print the Table 1 device spectrum so tier technologies are
    discoverable without reading source."""
    aliases: Dict[str, List[str]] = {}
    for alias, technology in TECHNOLOGY_ALIASES.items():
        aliases.setdefault(technology.value, []).append(alias)
    entries = []
    for technology, spec in TABLE1_SPECS.items():
        entries.append(
            {
                "technology": technology.value,
                "aliases": sorted(aliases.get(technology.value, [])),
                "name": spec.name,
                "default_capacity_bytes": spec.capacity_bytes,
                "read_latency_us": spec.base_read_latency / MICROSECOND,
                "max_read_iops": spec.max_read_iops,
                "access_granularity_bytes": spec.access_granularity_bytes,
                "read_bandwidth_gbps": spec.read_bus_bandwidth / 1e9,
                "endurance_dwpd": spec.endurance_dwpd,
                "cost_per_gb_vs_dram": spec.relative_cost_per_gb,
                "sourcing": spec.sourcing,
            }
        )
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    rows = [
        [
            entry["technology"],
            ",".join(entry["aliases"]),
            format_bytes(entry["default_capacity_bytes"]),
            round(entry["read_latency_us"], 2),
            f"{entry['max_read_iops'] / 1e6:g}M",
            entry["access_granularity_bytes"],
            round(entry["read_bandwidth_gbps"], 1),
            entry["endurance_dwpd"],
            f"1/{round(1 / entry['cost_per_gb_vs_dram'])}",
            entry["sourcing"],
        ]
        for entry in entries
    ]
    print(
        format_table(
            [
                "technology",
                "aliases",
                "capacity",
                "latency (us)",
                "IOPS",
                "granularity (B)",
                "read BW (GB/s)",
                "DWPD",
                "$/GB vs DRAM",
                "sourcing",
            ],
            rows,
            title="Table 1 device spectrum (--tiers technologies; plus 'dram' for tier 0)",
        )
    )
    return 0


def _cmd_list_backends(args: argparse.Namespace) -> int:
    backends = available_backends()
    if args.json:
        print(json.dumps(backends, indent=2))
    else:
        rows = [[name, backends[name]] for name in sorted(backends)]
        print(format_table(["backend", "description"], rows, title="registered backends"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment front end for the SDM reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="serve one scenario end to end")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome-trace-event JSON of the run (implies tracing on)",
    )
    run_parser.add_argument(
        "--timeline-out",
        metavar="FILE",
        help="write the timeline windows as JSON (needs --sample-interval)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = subparsers.add_parser(
        "report", help="render a stored result or campaign directory as a report"
    )
    report_parser.add_argument(
        "target", help="result JSON file (run --json output) or campaign --out directory"
    )
    report_parser.add_argument("--json", action="store_true", help="emit JSON")
    report_parser.set_defaults(handler=_cmd_report)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help=(
            "run a one-dimensional parameter study in this process (for a "
            "process pool: campaign --grid param=v1,v2 --parallel N)"
        ),
    )
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--param", required=True, help="dotted spec path, e.g. serving.concurrency"
    )
    sweep_parser.add_argument("--values", required=True, help="comma-separated values")
    sweep_parser.add_argument(
        "--metric", default="achieved_qps", help="ScenarioResult attribute to tabulate"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run a multi-axis scenario grid, optionally persisted"
    )
    _add_scenario_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        required=True,
        metavar="PARAM=V1,V2,...",
        help="grid axis (repeatable), e.g. --grid backend.name=dram,sdm",
    )
    campaign_parser.add_argument(
        "--parallel", type=int, default=1, help="worker processes for fresh points"
    )
    campaign_parser.add_argument(
        "--runtime",
        choices=list(RUNTIME_NAMES),
        default=None,
        help=(
            "execution engine: serial, pool (work-stealing process pool), or "
            "dry (plan without executing); default picks pool when "
            "--parallel > 1"
        ),
    )
    campaign_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failing point before quarantining it",
    )
    campaign_parser.add_argument(
        "--no-reuse",
        action="store_true",
        help="build a fresh backend and query stream per point instead of reusing "
        "worker-resident ones",
    )
    campaign_parser.add_argument(
        "--replicates", type=int, default=1, help="seed replicates per grid point"
    )
    campaign_parser.add_argument(
        "--out", metavar="DIR", help="experiment store directory (enables memoisation)"
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help="serve already-completed points from --out instead of refusing",
    )
    campaign_parser.add_argument(
        "--metric",
        action="append",
        metavar="NAME",
        help="ScenarioResult attribute column (repeatable; default achieved_qps)",
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress on stderr"
    )
    campaign_parser.set_defaults(handler=_cmd_campaign)

    compare_parser = subparsers.add_parser(
        "compare", help="diff two stored campaign runs and flag regressions"
    )
    compare_parser.add_argument("baseline", help="baseline run directory (--out of a campaign)")
    compare_parser.add_argument("candidate", help="candidate run directory")
    compare_parser.add_argument(
        "--metric",
        action="append",
        metavar="PATH[:higher|lower]",
        help="result metric to compare (repeatable), e.g. latency_seconds.p99:lower",
    )
    compare_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative worsening allowed before a metric counts as regressed",
    )
    compare_parser.add_argument("--json", action="store_true", help="emit JSON")
    compare_parser.set_defaults(handler=_cmd_compare)

    list_parser = subparsers.add_parser("list-backends", help="show registered backends")
    list_parser.add_argument("--json", action="store_true", help="emit JSON")
    list_parser.set_defaults(handler=_cmd_list_backends)

    devices_parser = subparsers.add_parser(
        "list-devices", help="show the Table 1 device spectrum for --tiers"
    )
    devices_parser.add_argument("--json", action="store_true", help="emit JSON")
    devices_parser.set_defaults(handler=_cmd_list_devices)

    add_lint_parser(subparsers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Normal when piping into `head` etc.; exit quietly.  Detach stdout so
        # the interpreter's shutdown flush doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as error:
        # Spec/registry/config mistakes are user errors, not crashes: report
        # the message (which lists the valid choices) without a traceback.
        # KeyError wraps its message in quotes, so unwrap args[0] there;
        # str() keeps OSError's "[Errno 2] ... : 'path'" form intact.
        message = error.args[0] if isinstance(error, KeyError) and error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
