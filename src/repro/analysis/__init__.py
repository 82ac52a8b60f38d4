"""Metric collection and report formatting shared by tests, examples and benches."""

from repro.analysis.metrics import percentile
from repro.analysis.reporting import format_series, format_table

__all__ = [
    "percentile",
    "format_table",
    "format_series",
]
