"""``python -m repro`` — run scenarios from the command line.

A scenario value has one name, its dotted spec path (the paths of
:meth:`~repro.api.spec.ScenarioSpec.replace`): ``--set PATH=VALUE`` sets it
for ``run`` and ``campaign``, and ``--grid PATH=V1,V2,...`` makes it a
campaign axis.  Subcommands::

    python -m repro run                # serve an M1 SDM scenario end to end
    python -m repro run --set backend.name=dram --set workload.num_queries=100 --json
    python -m repro run --spec scenario.json --set backend.options.row_cache_capacity_bytes=1048576
    python -m repro run --arrival poisson --set traffic.offered_qps=120.0   # open loop
    python -m repro run --tiers dram:64KiB,cxl:1MiB,nand:1GiB # 3-tier hierarchy
    python -m repro campaign --grid tiers.1.capacity=256KiB,1MiB,4MiB \\
        --tiers dram:64KiB,cxl:1MiB,nand:1GiB
    python -m repro campaign --grid traffic.offered_qps=40,80,160  # open loop
    python -m repro campaign --grid backend.name=dram,sdm \\
        --grid serving.concurrency=1,2 --parallel 4 --out runs/demo
    python -m repro campaign --out runs/demo --resume ...   # skip done points
    python -m repro compare runs/baseline runs/demo
    python -m repro list-devices
    python -m repro list-backends

The other scenario flags do more than set one path: ``--tiers`` parses a
hierarchy and picks the ``tiered`` backend over ``sdm``, ``--arrival`` also
sets the traffic mode, and ``--seed`` sets the model, workload and traffic
seeds.  Output is a table, or JSON with ``--json``; ``compare`` exits
non-zero when it finds regressions, so it slots directly into CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.report import format_table
from repro.api.registry import available_backends
from repro.api.results import campaign_table, metric_path_error
from repro.api.session import Session
from repro.api.spec import OPEN_LOOP_ONLY_PARAMS, ScenarioSpec, spec_path_error
from repro.hierarchy import TECHNOLOGY_ALIASES, parse_tiers
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


def _parse_paths(pairs: Sequence[str], flag: str, *, axis: bool) -> Dict[str, Any]:
    """``PATH=VALUE`` pairs (``PATH=V1,V2,...`` for an ``axis``) keyed by spec
    path in command-line order; a bad or repeated path is a user error."""
    parsed: Dict[str, Any] = {}
    for pair in pairs:
        path, equals, raw = pair.partition("=")
        if not equals:
            shape = "param=v1,v2,..." if axis else "param=value"
            raise ValueError(f"{flag} expects {shape}, got {pair!r}")
        error = spec_path_error(path)
        if error is not None:
            raise ValueError(error)
        if path in parsed:
            raise ValueError(f"{flag} {path!r} is given twice")
        if axis:
            values = [_parse_value(token) for token in raw.split(",") if token]
            if not values:
                raise ValueError(f"{flag} {path!r} must list at least one value")
            parsed[path] = values
        else:
            parsed[path] = _parse_value(raw)
    return parsed


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", metavar="FILE", help="JSON ScenarioSpec to start from")
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="set one spec value by its dotted path (repeatable, applied in order), "
        "e.g. --set workload.num_queries=100 or "
        "--set backend.options.pooled_cache_enabled=false",
    )
    parser.add_argument(
        "--tiers",
        metavar="SPEC",
        help=(
            "memory hierarchy, fastest first: tech:capacity[:cache] entries "
            "joined by commas, e.g. dram:64KiB,cxl:1MiB,nand:1GiB "
            "(see list-devices for technologies); selects tiered over sdm"
        ),
    )
    parser.add_argument("--seed", type=int, help="model, workload and traffic seed")
    parser.add_argument(
        "--arrival",
        choices=["closed", "poisson", "constant"],
        help="traffic shape: closed loop (default) or an open-loop arrival process",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")


def _traffic_mode(
    spec: ScenarioSpec, arrival: Optional[str], sets: Mapping[str, Any], grid: Mapping[str, Any]
) -> ScenarioSpec:
    """The one open-loop rule, shared by ``run --set`` and ``campaign --grid``.

    The closed loop reads none of :data:`OPEN_LOOP_ONLY_PARAMS`, so setting
    or sweeping one on a closed-loop spec switches traffic to open (a grid
    gives the base spec its first offered load); asking for closed-loop
    traffic as well is a user error rather than a dropped value.
    """
    open_only = sorted((set(sets) | set(grid)) & OPEN_LOOP_ONLY_PARAMS)
    if open_only and (arrival == "closed" or sets.get("traffic.mode") == "closed"):
        raise ValueError(
            f"{open_only[0]} needs open-loop traffic, but closed-loop traffic "
            f"was asked for"
        )
    if "traffic.offered_qps" in grid:
        spec = spec.replace("traffic.offered_qps", grid["traffic.offered_qps"][0])
    if arrival == "closed":
        return spec.replace("traffic.mode", "closed")
    if arrival is not None:
        spec = spec.replace("traffic.arrival", arrival)
    if arrival is not None or open_only:
        return spec.replace("traffic.mode", "open")
    return spec


def _spec_from_args(args: argparse.Namespace, grid: Mapping[str, List[Any]]) -> ScenarioSpec:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
    else:
        spec = ScenarioSpec()
    if args.tiers is not None:
        # A list of mappings, so paths like tiers.1.capacity can address
        # single entries; a later --set backend.name=... overrides the switch.
        tier_dicts = [tier.to_dict() for tier in parse_tiers(args.tiers)]
        spec = spec.replace("backend.options.tiers", tier_dicts)
        if spec.backend.name == "sdm":
            spec = spec.replace("backend.name", "tiered")
    if args.seed is not None:
        for path in ("model.seed", "workload.seed", "traffic.seed"):
            spec = spec.replace(path, args.seed)
    sets = _parse_paths(args.set, "--set", axis=False)
    both = sorted(set(sets) & set(grid))
    if both:
        raise ValueError(f"{both[0]!r} is given both by --set and by --grid")
    for path, value in sets.items():
        spec = spec.replace(path, value)
    return _traffic_mode(spec, args.arrival, sets, grid)


def _write_json(path: str, payload: Any, label: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"{label}: {out}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, {})
    if args.trace_out:
        spec = spec.replace("telemetry.trace", True)
    if args.timeline_out and spec.telemetry.sample_interval <= 0:
        raise ValueError(
            "--timeline-out needs a sampling cadence: pass --set "
            "telemetry.sample_interval=SECONDS (simulated) or set it in --spec"
        )
    result = Session(spec).run()
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
            reports = [
                {
                    "scenario": record.get("scenario"),
                    "coords": record.get("coords"),
                    "report": report_dict(record["result"]),
                }
                for record in records
            ]
            print(json.dumps(reports, indent=2))
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


def _campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    grid = _parse_paths(args.grid, "--grid", axis=True)
    spec = _spec_from_args(args, grid)
    return CampaignSpec.from_grid(spec, grid, name=spec.name, replicates=args.replicates)


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
    names another engine, which cannot take a pool size."""
    if args.parallel < 1:
        raise ValueError(f"--parallel must be positive: {args.parallel}")
    if args.parallel == 1:
        return args.runtime or "serial"
    if args.runtime in (None, "pool"):
        return LocalPoolRuntime(workers=args.parallel)
    raise ValueError(
        f"--parallel {args.parallel} sizes the pool, but --runtime {args.runtime} "
        f"runs no pool"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    campaign = _campaign_from_args(args)
    metrics = args.metric or ["achieved_qps"]
    # Check before the (expensive) grid runs, not after.
    for metric in metrics:
        error = metric_path_error(metric)
        if error is not None:
            raise ValueError(error)
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
            ["technology", "aliases", "capacity", "latency (us)", "IOPS",
             "granularity (B)", "read BW (GB/s)", "DWPD", "$/GB vs DRAM", "sourcing"],
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
        help="write the timeline windows as JSON (needs telemetry.sample_interval)",
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

    campaign_parser = subparsers.add_parser(
        "campaign", help="run a multi-axis scenario grid, optionally persisted"
    )
    _add_scenario_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--grid", action="append", default=[], required=True, metavar="PATH=V1,V2,...",
        help="grid axis by dotted spec path (repeatable), e.g. --grid backend.name=dram,sdm",
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
        "--retries", type=int, default=0,
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
        "--resume", action="store_true",
        help="serve already-completed points from --out instead of refusing",
    )
    campaign_parser.add_argument(
        "--metric",
        action="append",
        metavar="PATH",
        help="stored result metric column (repeatable; default achieved_qps), "
        "e.g. latency_seconds.p99",
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
        "--tolerance", type=float, default=0.0,
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Normal when piping into `head` etc.; exit quietly.  Detach stdout so
        # the interpreter's shutdown flush doesn't raise a second time.
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
