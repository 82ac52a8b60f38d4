"""Diff two stored campaign runs and report per-metric regressions.

Both runs are :class:`ExperimentStore` directories; points are matched by
scenario name — which, for campaign points, encodes the campaign name and the
full grid coordinates — so the comparison works for both regression CI (same
specs, changed code) and config A/B studies (same grid, changed base spec).
When a matched pair's canonical spec hashes differ, the pair is flagged as
*spec drift* so a deliberate A/B is distinguishable from an accidental one.
Each metric is a dotted path into the stored result, checked by
:func:`repro.api.results.metric_path_error` when it is parsed, and carries a
direction (higher- or lower-is-better); a regression is a change in the
*worse* direction by more than ``tolerance`` (relative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.results import metric_path_error, metric_value
from repro.obs.report import format_table
from repro.runtime.store import ExperimentStore

#: Metric paths where larger numbers are better; every other path
#: (latencies, queue delays, drop counts, power) defaults to lower-is-better.
_HIGHER_IS_BETTER = frozenset(
    {
        "achieved_qps",
        "offered_qps",
        "slo_headroom",
        "meets_slo",
        "num_queries",
        "backend_stats.row cache hit rate",
        "backend_stats.pooled cache hit rate",
        "power.power_saving",
    }
)

#: Default comparison set: throughput, tail latency, shed traffic.
DEFAULT_METRICS: Tuple[str, ...] = (
    "achieved_qps",
    "latency_seconds.p99",
    "dropped_queries",
)


@dataclass(frozen=True)
class MetricSpec:
    """One compared metric: a checked path into the stored result + direction."""

    path: str
    higher_is_better: bool

    def __post_init__(self) -> None:
        error = metric_path_error(self.path)
        if error is not None:
            raise ValueError(error)

    @classmethod
    def parse(cls, text: str) -> "MetricSpec":
        """``"latency_seconds.p99"``, ``"achieved_qps:higher"``, ``"x:lower"``."""
        path, _, direction = text.partition(":")
        if direction not in ("", "higher", "lower"):
            raise ValueError(
                f"metric direction must be 'higher' or 'lower': {text!r}"
            )
        if direction:
            higher = direction == "higher"
        else:
            higher = path in _HIGHER_IS_BETTER
        return cls(path=path, higher_is_better=higher)


@dataclass(frozen=True)
class MetricDelta:
    """One (point, metric) comparison between the two runs."""

    scenario: str
    metric: str
    higher_is_better: bool
    baseline: float
    candidate: float
    regressed: bool
    specs_match: bool = True

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float:
        return self.candidate / self.baseline if self.baseline else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "metric": self.metric,
            "higher_is_better": self.higher_is_better,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta": self.delta,
            "regressed": self.regressed,
            "specs_match": self.specs_match,
        }


@dataclass
class RunComparison:
    """Everything `compare_runs` established about two stored runs."""

    baseline_root: str
    candidate_root: str
    tolerance: float
    deltas: List[MetricDelta] = field(default_factory=list)
    only_in_baseline: List[str] = field(default_factory=list)  # scenario names
    only_in_candidate: List[str] = field(default_factory=list)
    spec_drift: List[str] = field(default_factory=list)  # matched, specs differ
    compared_points: int = 0

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_root,
            "candidate": self.candidate_root,
            "tolerance": self.tolerance,
            "compared_points": self.compared_points,
            "num_regressions": len(self.regressions),
            "deltas": [delta.to_dict() for delta in self.deltas],
            "only_in_baseline": list(self.only_in_baseline),
            "only_in_candidate": list(self.only_in_candidate),
            "spec_drift": list(self.spec_drift),
        }

    def table(self) -> str:
        rows = [
            [
                delta.scenario,
                delta.metric,
                delta.baseline,
                delta.candidate,
                delta.delta,
                "REGRESSED" if delta.regressed else "ok",
            ]
            for delta in self.deltas
        ]
        title = (
            f"compare: {self.compared_points} matched points, "
            f"{len(self.regressions)} regression(s)"
        )
        body = format_table(
            ["scenario", "metric", "baseline", "candidate", "delta", "verdict"],
            rows,
            title=title,
            float_fmt=".6g",
        )
        notes = []
        if self.only_in_baseline:
            notes.append(f"only in baseline: {len(self.only_in_baseline)} point(s)")
        if self.only_in_candidate:
            notes.append(f"only in candidate: {len(self.only_in_candidate)} point(s)")
        if self.spec_drift:
            notes.append(
                f"spec drift (same point, different spec): "
                f"{len(self.spec_drift)} point(s)"
            )
        return body + ("\n" + "\n".join(notes) if notes else "")


def _as_store(run: Union[str, Path, ExperimentStore]) -> ExperimentStore:
    return run if isinstance(run, ExperimentStore) else ExperimentStore(run)


def _is_regression(
    metric: MetricSpec, baseline: float, candidate: float, tolerance: float
) -> bool:
    worse = (candidate - baseline) if not metric.higher_is_better else (baseline - candidate)
    scale = max(abs(baseline), abs(candidate), 1e-12)
    return worse > tolerance * scale + 1e-12


def compare_runs(
    baseline: Union[str, Path, ExperimentStore],
    candidate: Union[str, Path, ExperimentStore],
    *,
    metrics: Optional[Sequence[Union[str, MetricSpec]]] = None,
    tolerance: float = 0.0,
) -> RunComparison:
    """Compare every point the two stores share, metric by metric.

    ``metrics`` entries are :class:`MetricSpec` or strings in
    :meth:`MetricSpec.parse` form; ``tolerance`` is the relative change in
    the worse direction a metric may move before it counts as a regression
    (``0.05`` = 5%).  Two runs with no point in common, or a metric that
    gives a number on none of the matched points, raise ``ValueError``: a
    mismatched run or a misspelt backend stat must not pass as zero
    regressions.  A partial overlap compares the shared points and lists the
    rest in ``only_in_baseline`` / ``only_in_candidate``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    base_store, cand_store = _as_store(baseline), _as_store(candidate)
    specs = [
        metric if isinstance(metric, MetricSpec) else MetricSpec.parse(metric)
        for metric in (metrics if metrics is not None else DEFAULT_METRICS)
    ]
    def by_name(store: ExperimentStore) -> Dict[str, Dict[str, Any]]:
        # Point names embed the campaign coordinates, so they are unique
        # within a run; a re-run of the same point keeps the later record.
        return {
            record.get("scenario") or record["spec_hash"]: record for record in store
        }

    base_records, cand_records = by_name(base_store), by_name(cand_store)
    comparison = RunComparison(
        baseline_root=str(base_store.root),
        candidate_root=str(cand_store.root),
        tolerance=tolerance,
    )

    def order_key(name: str) -> Tuple[Any, ...]:
        record = base_records.get(name) or cand_records.get(name)
        index = record.get("index")
        return (index is None, index, name)

    for name in sorted(set(base_records) | set(cand_records), key=order_key):
        base_rec, cand_rec = base_records.get(name), cand_records.get(name)
        if base_rec is None:
            comparison.only_in_candidate.append(name)
            continue
        if cand_rec is None:
            comparison.only_in_baseline.append(name)
            continue
        comparison.compared_points += 1
        specs_match = base_rec.get("spec_hash") == cand_rec.get("spec_hash")
        if not specs_match:
            comparison.spec_drift.append(name)
        for metric in specs:
            before = metric_value(base_rec.get("result") or {}, metric.path)
            after = metric_value(cand_rec.get("result") or {}, metric.path)
            if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
                # e.g. queueing metrics on a closed-loop point: not comparable.
                continue
            comparison.deltas.append(
                MetricDelta(
                    scenario=name,
                    metric=metric.path,
                    higher_is_better=metric.higher_is_better,
                    baseline=float(before),
                    candidate=float(after),
                    regressed=_is_regression(metric, before, after, tolerance),
                    specs_match=specs_match,
                )
            )
    if not comparison.compared_points:
        raise ValueError(
            f"no point of {str(base_store.root)!r} matches a point of "
            f"{str(cand_store.root)!r}; there is nothing to compare"
        )
    compared = {delta.metric for delta in comparison.deltas}
    for metric in specs:
        if metric.path not in compared:
            raise ValueError(
                f"metric {metric.path!r} gives a number on none of the "
                f"{comparison.compared_points} matched point(s)"
            )
    return comparison
