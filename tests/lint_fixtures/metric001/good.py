"""METRIC001 negative fixture: addressable paths into the stored result."""

from repro.api.results import campaign_table
from repro.runtime import MetricSpec, compare_runs


def tables(outcomes):
    a = campaign_table(outcomes, "achieved_qps")
    b = campaign_table(outcomes, metrics=["achieved_qps", "latency_seconds.p99"])
    return a, b


def comparisons():
    spec = MetricSpec.parse("latency_seconds.p99:lower")
    diff = compare_runs("a", "b", metrics=["achieved_qps:higher", "power.fleet_power"])
    return spec, diff
