"""Structured results returned by :meth:`repro.api.session.Session.run`.

A :class:`ScenarioResult` aggregates what the hand-wired examples used to
assemble by hand: the host simulation outcome (latency percentiles, QPS, SLO
verdict), the backend's serving statistics (cache hit rates, IOs per query,
footprints) and — when the spec names a platform — the fleet power accounting
of Equation 7 via :mod:`repro.serving.power`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.report import format_table
from repro.api.spec import coord_label
from repro.serving.engine import HostSimulationResult


@dataclass(frozen=True)
class PowerSummary:
    """Fleet sizing and normalised power for one scenario (Eq. 7 + power model)."""

    platform: str
    host_power: float
    num_hosts: int
    fleet_power: float
    baseline_platform: Optional[str] = None
    baseline_num_hosts: Optional[int] = None
    baseline_fleet_power: Optional[float] = None
    power_saving: Optional[float] = None


#: Stored keys that differ from their :class:`ScenarioResult` field names.
_STORED_NAMES = {
    "backend_name": "backend",
    "latency": "latency_seconds",
    "queueing": "queueing_seconds",
}

#: Fields that stay in memory: the raw host simulation and the Chrome trace.
_UNSTORED = frozenset({"host_result", "trace"})


def _copied(value: Any) -> Any:
    """A stored value's own copy: dicts, lists of dicts and the power summary."""
    if isinstance(value, PowerSummary):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return [dict(item) for item in value]
    return value


@dataclass
class ScenarioResult:
    """Everything one :meth:`Session.run` produced, ready to report."""

    scenario: str
    backend_name: str
    num_queries: int
    concurrency: int
    makespan_seconds: float
    achieved_qps: float
    latency: Dict[str, float]  # mean/p50/p95/p99 in seconds
    meets_slo: bool
    slo_headroom: float
    backend_stats: Dict[str, float] = field(default_factory=dict)
    power: Optional[PowerSummary] = None
    host_result: Optional[HostSimulationResult] = None  # raw, not serialised
    traffic_mode: str = "closed"
    offered_qps: Optional[float] = None  # open loop only (measured from arrivals)
    serve_batch: int = 1  # open-loop queue-drain batch size (1 = classic)
    dropped_queries: int = 0
    queueing: Optional[Dict[str, float]] = None  # queue-delay mean/p50/p95/p99
    tiers: Optional[List[Dict[str, Any]]] = None  # per-tier hit rates / bytes served
    timeline: Optional[Dict[str, Any]] = None  # repro.obs Timeline.to_dict() windows
    trace: Optional[Dict[str, Any]] = None  # Chrome trace events; not serialised

    def percentile_ms(self, key: str) -> float:
        return self.latency[key] * 1e3

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output.

        The inverse of :meth:`to_dict`; the unstored ``host_result`` and
        ``trace`` come back as ``None`` and a missing key takes its field's
        default.  This is how campaign results cross process boundaries and
        re-enter from the experiment store.
        """
        values = {name: _copied(data[key]) for name, key in _STORED if key in data}
        if values.get("power") is not None:
            values["power"] = PowerSummary(**values["power"])
        return cls(**values)

    # ------------------------------------------------------------- reporting
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary: every field but ``host_result`` and
        ``trace``, in field order, under its stored key."""
        return {key: _copied(getattr(self, name)) for name, key in _STORED}

    def summary_rows(self) -> List[List[Any]]:
        """Metric/value rows in :func:`repro.obs.report.format_table` shape."""
        rows: List[List[Any]] = [
            ["backend", self.backend_name],
            ["queries served", self.num_queries],
            ["achieved QPS (simulated)", round(self.achieved_qps, 1)],
            ["mean latency (ms)", round(self.percentile_ms("mean"), 3)],
            ["p50 latency (ms)", round(self.percentile_ms("p50"), 3)],
            ["p95 latency (ms)", round(self.percentile_ms("p95"), 3)],
            ["p99 latency (ms)", round(self.percentile_ms("p99"), 3)],
            ["meets SLO", self.meets_slo],
        ]
        if self.traffic_mode == "open":
            if self.offered_qps is not None:
                rows.append(["offered QPS", round(self.offered_qps, 1)])
            if self.serve_batch != 1:
                rows.append(["serve batch", self.serve_batch])
            rows.append(["dropped queries", self.dropped_queries])
            if self.dropped_queries:
                offered = self.num_queries + self.dropped_queries
                rows.append(["drop rate", round(self.dropped_queries / offered, 3)])
            if self.queueing is not None:
                rows.append(["p99 queue delay (ms)", round(self.queueing["p99"] * 1e3, 3)])
        for key, value in self.backend_stats.items():
            rows.append([key, round(value, 3) if isinstance(value, float) else value])
        if self.tiers:
            total_rows_served = sum(tier["rows_served"] for tier in self.tiers)
            for tier in self.tiers:
                label = f"tier{tier['tier']} ({tier['technology']})"
                rows.append([f"{label} rows served", tier["rows_served"]])
                rows.append([f"{label} bytes served", tier["bytes_served"]])
                if total_rows_served:
                    rows.append(
                        [
                            f"{label} serve share",
                            round(tier["rows_served"] / total_rows_served, 3),
                        ]
                    )
                if tier.get("cache_hit_rate") is not None:
                    rows.append(
                        [f"{label} cache hit rate", round(tier["cache_hit_rate"], 3)]
                    )
        if self.timeline is not None:
            rows.append(
                [
                    "timeline windows",
                    f"{self.timeline.get('num_windows', 0)} x "
                    f"{self.timeline.get('interval_seconds', 0):g}s",
                ]
            )
        if self.power is not None:
            rows.append([f"hosts ({self.power.platform})", self.power.num_hosts])
            rows.append(["fleet power", round(self.power.fleet_power, 1)])
            if self.power.power_saving is not None:
                rows.append(["fleet power saving", round(self.power.power_saving, 3)])
        return rows

    def summary_table(self) -> str:
        return format_table(
            ["metric", "value"], self.summary_rows(), title=f"scenario: {self.scenario}"
        )


#: ``(field name, stored key)`` of every stored field, in field order.
_STORED: Tuple[Tuple[str, str], ...] = tuple(
    (f.name, _STORED_NAMES.get(f.name, f.name))
    for f in dataclasses.fields(ScenarioResult)
    if f.name not in _UNSTORED
)

#: Percentile sub-keys under ``latency_seconds`` and ``queueing_seconds``.
PERCENTILE_KEYS: Tuple[str, ...] = ("mean", "p50", "p95", "p99")

#: Stored dicts a metric path descends into: what their keys are called and
#: which keys exist (``None``: backend-defined, so not checked statically).
_METRIC_DICTS: Dict[str, Tuple[str, Optional[Tuple[str, ...]]]] = {
    "latency_seconds": ("percentile", PERCENTILE_KEYS),
    "queueing_seconds": ("percentile", PERCENTILE_KEYS),
    "power": ("PowerSummary field", tuple(f.name for f in dataclasses.fields(PowerSummary))),
    "backend_stats": ("backend stat", None),
}


def result_dict_keys() -> Tuple[str, ...]:
    """Top-level keys of :meth:`ScenarioResult.to_dict` (the stored form),
    which are the first segments of every metric path."""
    return tuple(key for _, key in _STORED)


def metric_path_error(path: str) -> Optional[str]:
    """Check a dotted metric path into the stored result (``"latency_seconds.p99"``).

    Every metric -- a ``campaign_table`` / ``repro campaign --metric`` column,
    a ``repro compare`` / :class:`~repro.runtime.compare.MetricSpec` path --
    names one scalar of :meth:`ScenarioResult.to_dict`.  Returns ``None``
    when the path is addressable, an error message otherwise.  The keys
    under ``backend_stats`` are backend-defined, so only their depth is
    checked.
    """
    parts = path.split(".")
    if any(not part for part in parts):
        return f"metric path {path!r} has an empty segment"
    head = parts[0]
    if head not in result_dict_keys():
        return (
            f"unknown metric path {path!r}; result keys: "
            f"{sorted(result_dict_keys())}"
        )
    if head == "tiers":
        return (
            f"metric path {path!r}: per-tier stats are a list and not "
            f"addressable by metrics"
        )
    if head == "timeline":
        return (
            f"metric path {path!r}: the timeline is a window series and not "
            f"addressable by metrics; use 'repro report' instead"
        )
    if head not in _METRIC_DICTS:
        if len(parts) > 1:
            return f"metric path {path!r} descends below the scalar key {head!r}"
        return None
    label, keys = _METRIC_DICTS[head]
    if len(parts) == 1:
        choices = f"; choices: {list(keys)}" if keys is not None else ""
        return f"metric path {path!r} is a dict; name one {label} below it{choices}"
    if keys is not None and parts[1] not in keys:
        return (
            f"metric path {path!r}: unknown {label} {parts[1]!r}; "
            f"choices: {list(keys)}"
        )
    if len(parts) > 2:
        return f"metric path {path!r} descends below a scalar {label}"
    return None


def metric_value(stored: Mapping[str, Any], path: str) -> Any:
    """The value a checked metric ``path`` names in a stored result, or
    ``None`` where the result lacks it (queueing on a closed-loop point, a
    backend stat the backend does not report)."""
    node: Any = stored
    for part in path.split("."):
        if not isinstance(node, Mapping):
            return None
        node = node.get(part)
    return node


def campaign_table(
    outcomes: Sequence[Any],
    metrics: Union[str, Sequence[str]] = "achieved_qps",
    *,
    title: str = "campaign",
) -> str:
    """Format campaign outcomes as one row per grid point.

    ``outcomes`` are the :class:`~repro.runtime.executor.PointOutcome` objects
    ``run_campaign`` returns (anything with ``coords`` pairs and a
    ``ScenarioResult``-valued ``result`` works).  Columns are the grid axes in
    campaign order followed by one column per metric path, checked with
    :func:`metric_path_error` before any row is formatted.
    """
    if not outcomes:
        raise ValueError("campaign_table needs at least one outcome")
    metric_names = [metrics] if isinstance(metrics, str) else list(metrics)
    if not metric_names:
        raise ValueError("campaign_table needs at least one metric")
    for metric in metric_names:
        error = metric_path_error(metric)
        if error is not None:
            raise ValueError(error)
    def coord_pairs(outcome: Any) -> Sequence[Tuple[str, Any]]:
        # Prefer the expansion's disambiguated labels; fall back to labelling
        # the raw coordinate values (e.g. for hand-built outcome rows).
        labels = getattr(outcome, "labels", None)
        if labels is not None:
            return labels
        return [(param, coord_label(value)) for param, value in outcome.coords]

    params = [param for param, _ in coord_pairs(outcomes[0])]
    rows: List[List[Any]] = []
    for outcome in outcomes:
        stored = outcome.result.to_dict()
        row: List[Any] = [value for _, value in coord_pairs(outcome)]
        row.extend(metric_value(stored, metric) for metric in metric_names)
        rows.append(row)
    return format_table(params + metric_names, rows, title=title, float_fmt=".6g")
