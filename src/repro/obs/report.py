"""Run reports: turn stored results + timelines into text or JSON, and the
plain-text tables every report, CLI listing and benchmark prints.

``python -m repro report TARGET`` renders a report for a result JSON file
(the output of ``run --json``) or every record of a stored campaign
directory.  The text form is the scenario summary table followed by a
per-window timeline table (served QPS, drops, queue depth, per-tier hit
rates); the JSON form (``--json``) is the same data structured for
downstream tooling.

This module works on the plain-dict forms (:meth:`ScenarioResult.to_dict`
output and :meth:`Timeline.to_dict` output) so reports can be produced from
stored records without rebuilding any simulation state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.obs.metrics import Timeline, window_rate, window_ratio

Cell = Union[str, int, float]


def _render_cell(value: Cell, float_fmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    float_fmt: str = ".3f",
) -> str:
    """Render an aligned ASCII table.

    >>> print(format_table(["a", "b"], [[1, 2.0]]))
    a | b
    --+------
    1 | 2.000
    """
    rendered_rows: List[List[str]] = [
        [_render_cell(cell, float_fmt) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers: {row}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    points: Union[Mapping[Cell, Cell], Sequence[Tuple[Cell, Cell]]],
    x_label: str = "x",
    y_label: str = "y",
    float_fmt: str = ".3f",
) -> str:
    """Render a named (x, y) series as a two column table (figure data)."""
    pairs = list(points.items()) if isinstance(points, Mapping) else list(points)
    return format_table([x_label, y_label], pairs, title=name, float_fmt=float_fmt)


#: Timeline counters always shown as per-window columns when present.
_DEFAULT_RATE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("engine.served", "served QPS"),
    ("engine.dropped", "drop QPS"),
)


def _tier_prefixes(timeline: Timeline) -> List[str]:
    """Counter prefixes that look like per-tier stats (``backend.tier0``)."""
    prefixes: Set[str] = set()
    for window in timeline.windows:
        for key in window.counters:
            head, _, tail = key.rpartition(".")
            if tail == "cache_probes" and head:
                prefixes.add(head)
    return sorted(prefixes)


def timeline_table_data(
    timeline: Timeline,
) -> Tuple[List[str], List[List[Any]]]:
    """Headers + rows of the per-window report table."""
    tiers = _tier_prefixes(timeline)
    headers = ["window", "start (s)", "end (s)"]
    rate_columns = [
        (key, label)
        for key, label in _DEFAULT_RATE_COLUMNS
        if any(key in window.counters for window in timeline.windows)
    ]
    headers += [label for _, label in rate_columns]
    headers += [f"{prefix.rpartition('.')[2]} hit rate" for prefix in tiers]
    gauge_names = sorted(
        {name for window in timeline.windows for name in window.gauges}
    )
    headers += gauge_names
    rows: List[List[Any]] = []
    for window in timeline.windows:
        row: List[Any] = [
            window.index,
            round(window.start, 6),
            round(window.end, 6),
        ]
        for key, _ in rate_columns:
            row.append(round(window_rate(window, key), 1))
        for prefix in tiers:
            ratio = window_ratio(
                window, f"{prefix}.cache_hits", f"{prefix}.cache_probes"
            )
            row.append("-" if ratio is None else round(ratio, 3))
        for name in gauge_names:
            value = window.gauges.get(name)
            row.append("-" if value is None else value)
        rows.append(row)
    return headers, rows


def report_dict(result_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """The structured (``--json``) report for one stored result dict."""
    report: Dict[str, Any] = {
        "scenario": result_dict.get("scenario"),
        "backend": result_dict.get("backend"),
        "summary": {
            key: result_dict.get(key)
            for key in (
                "num_queries",
                "achieved_qps",
                "offered_qps",
                "dropped_queries",
                "makespan_seconds",
                "meets_slo",
            )
        },
        "latency_seconds": result_dict.get("latency_seconds"),
        "queueing_seconds": result_dict.get("queueing_seconds"),
        "tiers": result_dict.get("tiers"),
    }
    raw_timeline = result_dict.get("timeline")
    if raw_timeline:
        timeline = Timeline.from_dict(raw_timeline)
        headers, rows = timeline_table_data(timeline)
        report["timeline"] = {
            "interval_seconds": timeline.interval,
            "num_windows": len(timeline),
            "totals": timeline.totals(),
            "columns": headers,
            "rows": rows,
        }
    return report


def render_report(result_dict: Mapping[str, Any], *, title: Optional[str] = None) -> str:
    """The text report for one stored result dict (summary + timeline)."""
    # Imported lazily: repro.api imports repro.obs at module load, so a
    # module-level import here would be circular.
    from repro.api.results import ScenarioResult

    result = ScenarioResult.from_dict(result_dict)
    parts = [
        format_table(
            ["metric", "value"],
            result.summary_rows(),
            title=title or f"scenario: {result.scenario}",
        )
    ]
    if result.timeline:
        timeline = Timeline.from_dict(result.timeline)
        headers, rows = timeline_table_data(timeline)
        parts.append(
            format_table(
                headers,
                rows,
                title=(
                    f"timeline: {len(timeline)} windows of "
                    f"{timeline.interval:g}s (simulated)"
                ),
            )
        )
    return "\n\n".join(parts)
