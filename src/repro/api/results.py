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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platform": self.platform,
            "host_power": self.host_power,
            "num_hosts": self.num_hosts,
            "fleet_power": self.fleet_power,
            "baseline_platform": self.baseline_platform,
            "baseline_num_hosts": self.baseline_num_hosts,
            "baseline_fleet_power": self.baseline_fleet_power,
            "power_saving": self.power_saving,
        }


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

        The inverse of :meth:`to_dict` for everything it serialises; the raw
        ``host_result`` is not serialised, so it comes back as ``None``.  This
        is how campaign results cross process boundaries and re-enter from the
        experiment store.
        """
        power = data.get("power")
        queueing = data.get("queueing_seconds")
        return cls(
            scenario=data["scenario"],
            backend_name=data["backend"],
            num_queries=data["num_queries"],
            concurrency=data["concurrency"],
            makespan_seconds=data["makespan_seconds"],
            achieved_qps=data["achieved_qps"],
            latency=dict(data["latency_seconds"]),
            meets_slo=data["meets_slo"],
            slo_headroom=data["slo_headroom"],
            backend_stats=dict(data.get("backend_stats") or {}),
            power=PowerSummary(**power) if power is not None else None,
            host_result=None,
            traffic_mode=data.get("traffic_mode", "closed"),
            offered_qps=data.get("offered_qps"),
            serve_batch=data.get("serve_batch", 1),
            dropped_queries=data.get("dropped_queries", 0),
            queueing=dict(queueing) if queueing is not None else None,
            tiers=[dict(tier) for tier in data["tiers"]] if data.get("tiers") else None,
            timeline=dict(data["timeline"]) if data.get("timeline") else None,
        )

    # ------------------------------------------------------------- reporting
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (drops the raw per-query results)."""
        return {
            "scenario": self.scenario,
            "backend": self.backend_name,
            "num_queries": self.num_queries,
            "concurrency": self.concurrency,
            "makespan_seconds": self.makespan_seconds,
            "achieved_qps": self.achieved_qps,
            "latency_seconds": dict(self.latency),
            "meets_slo": self.meets_slo,
            "slo_headroom": self.slo_headroom,
            "backend_stats": dict(self.backend_stats),
            "power": self.power.to_dict() if self.power is not None else None,
            "traffic_mode": self.traffic_mode,
            "offered_qps": self.offered_qps,
            "serve_batch": self.serve_batch,
            "dropped_queries": self.dropped_queries,
            "queueing_seconds": dict(self.queueing) if self.queueing is not None else None,
            "tiers": (
                [dict(tier) for tier in self.tiers] if self.tiers is not None else None
            ),
            "timeline": dict(self.timeline) if self.timeline is not None else None,
        }

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


def scenario_metrics() -> List[str]:
    """The metric names a :class:`ScenarioResult` exposes (its field names)."""
    return sorted(f.name for f in dataclasses.fields(ScenarioResult))


#: Percentile sub-keys under ``latency_seconds`` and ``queueing_seconds``.
PERCENTILE_KEYS: Tuple[str, ...] = ("mean", "p50", "p95", "p99")


def result_dict_keys() -> Tuple[str, ...]:
    """Top-level keys of :meth:`ScenarioResult.to_dict` (the stored form).

    These are the first segments of the dotted metric paths
    :class:`~repro.runtime.compare.MetricSpec` addresses; a test pins them
    against an actual ``to_dict`` so they cannot drift from the schema.
    """
    return (
        "scenario",
        "backend",
        "num_queries",
        "concurrency",
        "makespan_seconds",
        "achieved_qps",
        "latency_seconds",
        "meets_slo",
        "slo_headroom",
        "backend_stats",
        "power",
        "traffic_mode",
        "offered_qps",
        "serve_batch",
        "dropped_queries",
        "queueing_seconds",
        "tiers",
        "timeline",
    )


def scenario_metric_error(metric: str) -> Optional[str]:
    """Validate a :class:`ScenarioResult` *field* name (table metrics).

    Returns ``None`` for a valid field, an error message otherwise.  The
    message is what :func:`campaign_table` raises and
    what the ``repro lint`` METRIC001 rule reports.
    """
    if metric in {f.name for f in dataclasses.fields(ScenarioResult)}:
        return None
    return (
        f"unknown metric {metric!r}; valid ScenarioResult metrics: "
        f"{scenario_metrics()}"
    )


def metric_path_error(path: str) -> Optional[str]:
    """Validate a dotted *result-dict* metric path (``"latency_seconds.p99"``).

    These are the paths ``repro compare`` / :func:`repro.runtime.compare_runs`
    look up inside stored :meth:`ScenarioResult.to_dict` records.  Returns
    ``None`` when the path is addressable, an error message otherwise.
    ``backend_stats.*`` and ``power.*`` leaves are backend/platform defined,
    so only their first segment is checked.
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
    if head in ("latency_seconds", "queueing_seconds"):
        if len(parts) == 1:
            return (
                f"metric path {path!r} needs a percentile sub-key, e.g. "
                f"{head}.p99; choices: {list(PERCENTILE_KEYS)}"
            )
        if parts[1] not in PERCENTILE_KEYS:
            return (
                f"metric path {path!r}: unknown percentile {parts[1]!r}; "
                f"choices: {list(PERCENTILE_KEYS)}"
            )
        if len(parts) > 2:
            return f"metric path {path!r} descends below a scalar percentile"
        return None
    if head == "power":
        if len(parts) == 1:
            return None
        power_fields = {f.name for f in dataclasses.fields(PowerSummary)}
        if parts[1] not in power_fields:
            return (
                f"metric path {path!r}: PowerSummary has no field {parts[1]!r}; "
                f"valid fields: {sorted(power_fields)}"
            )
        if len(parts) > 2:
            return f"metric path {path!r} descends below a scalar power field"
        return None
    if head == "backend_stats":
        if len(parts) > 2:
            return f"metric path {path!r} descends below a scalar backend stat"
        return None
    if head == "tiers":
        return (
            f"metric path {path!r}: per-tier stats are a list and not "
            f"addressable by compare metrics"
        )
    if head == "timeline":
        return (
            f"metric path {path!r}: the timeline is a window series and not "
            f"addressable by compare metrics; use 'repro report' instead"
        )
    if len(parts) > 1:
        return f"metric path {path!r} descends below the scalar key {head!r}"
    return None


def _metric_value(result: ScenarioResult, metric: str) -> Any:
    """``getattr`` with a typo-friendly error listing the valid metrics."""
    error = scenario_metric_error(metric)
    if error is not None:
        raise ValueError(error)
    return getattr(result, metric)


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
    campaign order followed by one column per requested metric; metric names
    are validated against the :class:`ScenarioResult` fields up front.
    """
    if not outcomes:
        raise ValueError("campaign_table needs at least one outcome")
    metric_names = [metrics] if isinstance(metrics, str) else list(metrics)
    if not metric_names:
        raise ValueError("campaign_table needs at least one metric")
    for metric in metric_names:
        _metric_value(outcomes[0].result, metric)  # validate before formatting
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
        row: List[Any] = [value for _, value in coord_pairs(outcome)]
        for metric in metric_names:
            value = _metric_value(outcome.result, metric)
            row.append(round(value, 4) if isinstance(value, float) else value)
        rows.append(row)
    return format_table(params + metric_names, rows, title=title)
