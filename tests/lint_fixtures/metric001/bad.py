"""METRIC001 positive fixture: metric names that miss the result schema."""

from repro.api.results import campaign_table
from repro.runtime import MetricSpec, compare_runs


def tables(outcomes):
    a = campaign_table(outcomes, "achieved_qpz")
    b = campaign_table(outcomes, metrics=["makespan_secondz"])
    c = campaign_table(outcomes, "latency")
    return a, b, c


def comparisons():
    spec = MetricSpec.parse("latency_seconds.p98:lower")
    diff = compare_runs("a", "b", metrics=["achieved_qps:sideways"])
    return spec, diff
