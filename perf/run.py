"""The repo's benchmark.  One command prints every metric by name.

    python perf/run.py                      # the ledger: every workload, all metrics
    python perf/run.py --workload NAME ...  # a subset
    python perf/run.py --smoke              # every workload at ~1/25 size, seconds
    python perf/run.py --agree              # two full sets of runs, compared to the bounds
    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                                            # one run; last line is one JSON object

Every run of a workload happens in its own single-threaded child process
(``perf/worker.py``), one at a time.  End-to-end numbers come from untraced
passes; per-layer numbers from one extra traced pass.  Exit status is
non-zero when a check fails or (``--agree``) a metric leaves its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # As a script, sys.path[0] is perf/ itself, where trace.py would shadow
    # the standard library's module of that name.
    sys.path[0] = str(ROOT)

from perf.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perf" / "out"
CHILD_TIMEOUT_S = 170
#: A host-speed-only change must leave every simulated metric bit-equal.
EXACT_TOLERANCE = 1e-9


def manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> Dict[str, Any]:
    """Run one workload in a child process and return its result document."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0"
    )
    command = [
        sys.executable, "-m", "perf.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    # subprocess.run kills and reaps the child on timeout.
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1, PYTHONHASHSEED=0, one workload at a time",
    }


# ------------------------------------------------------------------ printing
def _rows(title: str, rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print(f"  {title}")
    for row in rows:
        print("    " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def print_workload(spec: Dict[str, Any], runs: Sequence[Dict[str, Any]]) -> None:
    """Print one workload from its runs: the timed one first, the traced one last."""
    timed, traced = runs[0], runs[-1]
    workload = WORKLOADS[timed["workload"]]
    samples = timed["samples"]
    print(f"\n== {workload.name} (seed {timed['seed']}) — {workload.why}")
    starts = {
        "pristine": "every pass starts from restore_pristine(): modelled caches start empty",
        "warm": "one untimed replay filled the row cache; counters and queues reset before every pass",
    }
    print(f"  start: {starts[timed['start']]}")
    counts = {
        "setup_s": f"median of {samples['setups']} set-ups",
        "wall_qps": f"median of {samples['passes']} passes x {samples['offered_per_pass']} queries",
        "peak_rss_mb": "1 process",
    }
    latency_n = f"n={samples['latency_samples']} served"
    _rows(
        "end to end (host time: setup_s, wall_qps, peak_rss_mb; simulated time: sim_*)",
        [
            [m["name"], _number(timed["end_to_end"][m["name"]]), m["unit"], counts.get(m["name"], latency_n)]
            for m in spec["end_to_end"]
        ],
    )
    print(
        "  sim_*: model unvalidated — no error figure (no reference hardware measurements in-tree);\n"
        "  the generator is simulated, so arrivals are never late: lateness 0 by construction;\n"
        "  sim_served_share < 1 is modelled shedding, not a host failure."
    )
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"  host ops: ops_attempted={attempted} ops_failed={failed}")
    for run in runs:
        for check in run["checks"]:
            state = "ok" if check["ok"] else "FAILED"
            print(f"    [{state}] (--trace {run['trace']}) {check['name']}: {check['detail']}")
    layers = traced["per_layer"]
    shares = sorted(
        ((name, value) for name, value in layers.items() if name.endswith(".share")), key=lambda kv: -kv[1]
    )
    _rows(
        f"where the time goes (exclusive host time, share of the traced serve call; "
        f"tracing overhead {layers['bench.trace_overhead']:+.1%})",
        [[name.split(".")[0], f"{value:.1%}"] for name, value in shares],
    )
    _rows(
        "per layer (1 traced pass)",
        [[m["name"], _number(layers[m["name"]]), m["unit"]] for m in spec["per_layer"]],
    )
    for expectation in traced["expectations"]:
        state = "holds" if expectation["ok"] else "DOES NOT HOLD"
        print(
            f"    expectation {expectation['metric']} {expectation['relation']} "
            f"{_number(expectation['value'])}: got {_number(expectation['got'])} — {state}"
        )
    if traced["missing_hooks"]:
        print(f"    hooks skipped (target gone): {', '.join(traced['missing_hooks'])}")


# --------------------------------------------------------------------- modes
def ledger(names: Sequence[str], seed: int, seconds: float, smoke: bool) -> int:
    """Run and print every named workload; write ``perf/out/ledger.json``."""
    spec = manifest()
    env = environment()
    print("env: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    document: Dict[str, Any] = {"env": env, "seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    failed = 0
    for name in names:
        # A smoke run takes its end-to-end numbers from the traced child's
        # untraced pass, so the whole catalogue costs five processes.
        runs = [run_child(name, seed, seconds, trace=1, smoke=smoke)]
        if not smoke:
            runs.insert(0, run_child(name, seed, seconds, trace=0))
        print_workload(spec, runs)
        failed += sum(run["failed"] for run in runs)
        document["workloads"][name] = {
            "end_to_end": runs[0]["end_to_end"],
            "per_layer": runs[-1]["per_layer"],
            "runs": runs,
        }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / ("smoke.json" if smoke else "ledger.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nops_failed = {failed}")
    return 1 if failed else 0


def agree(names: Sequence[str], seed: int, seconds: float) -> int:
    """Two sets of runs of the same code, compared against the bounds."""
    spec = manifest()
    sets: List[Dict[str, Dict[str, float]]] = []
    for _ in range(2):
        sets.append({name: run_child(name, seed, seconds, trace=0)["end_to_end"] for name in names})
    rows = [["workload", "metric", "first", "second", "rel. diff", "allowed", ""]]
    report = []
    outside = 0
    for name in names:
        for metric in spec["end_to_end"]:
            first, second = sets[0][name][metric["name"]], sets[1][name][metric["name"]]
            difference = abs(second - first) / abs(first) if first else abs(second)
            allowed = EXACT_TOLERANCE if metric["name"].startswith("sim_") else metric["bound"]
            ok = difference <= allowed
            outside += not ok
            rows.append([
                name, metric["name"], _number(first), _number(second),
                f"{difference:.2e}", f"{allowed:g}", "ok" if ok else "OUTSIDE",
            ])
            report.append({
                "workload": name, "metric": metric["name"], "first": first, "second": second,
                "relative_difference": difference, "allowed": allowed, "ok": ok,
            })
    _rows("agreement of two sets of runs (sim_* must be exact)", rows)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "agreement.json", "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "seconds": seconds, "outside": outside, "pairs": report}, handle, indent=1)
    print(f"\n{outside} metric x workload pairs outside their bound")
    return 1 if outside else 0


def single(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    """The driver's contract: one run, one JSON object on the last line."""
    spec = manifest()
    result = run_child(name, seed, seconds, trace, smoke)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if not all(math.isfinite(entry["value"]) for entry in metrics.values()):
        raise RuntimeError(f"{name}: non-finite metric")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single-run mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agree", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else float(manifest()["run_seconds"])
    if args.smoke:
        seconds = 0.0
    if args.trace is not None and len(names) != 1:
        parser.error("--trace runs exactly one --workload")
    try:
        if args.trace is not None:
            return single(names[0], args.seed, seconds, args.trace, args.smoke)
        if args.agree:
            return agree(names, args.seed, seconds)
        return ledger(names, args.seed, seconds, args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        # The worker's own traceback is already on stderr.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
