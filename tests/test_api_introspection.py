"""Schema introspection: the bridge between the lint rules and the live
ScenarioSpec/ScenarioResult dataclasses."""

import dataclasses

import pytest

from repro.api.results import (
    PERCENTILE_KEYS,
    PowerSummary,
    ScenarioResult,
    metric_path_error,
    result_dict_keys,
    scenario_metric_error,
    scenario_metrics,
)
from repro.api.spec import (
    ScenarioSpec,
    section_fields,
    spec_path_error,
)


class TestSpecPathError:
    @pytest.mark.parametrize(
        "path",
        [
            "name",
            "model.spec",
            "backend.name",
            "backend.options.num_devices",
            "backend.options.tiers.1.capacity",
            "tiers.1.capacity",  # the documented shorthand
            "tiers.0.cache_bytes",
            "workload.num_queries",
            "traffic.offered_qps",
            "serving.concurrency",
            "serving",  # a whole section is addressable
        ],
    )
    def test_valid_paths_pass(self, path):
        assert spec_path_error(path) is None

    @pytest.mark.parametrize(
        "path, fragment",
        [
            ("tiers.1.capactiy", "capactiy"),
            ("serving.concurency", "concurency"),
            ("warkload.num_queries", "warkload"),
            ("tiers.first.capacity", "tier index"),
            ("backend.name.extra", "backend.name"),
            ("serving..concurrency", "empty"),
            ("", "empty"),
        ],
    )
    def test_invalid_paths_name_the_problem(self, path, fragment):
        error = spec_path_error(path)
        assert error is not None
        assert fragment in error

    def test_every_replace_accepted_path_passes(self):
        # Contract: what spec_path_error blesses, ScenarioSpec.replace accepts.
        spec = ScenarioSpec()
        for path, value in [
            ("workload.num_queries", 5),
            ("serving.concurrency", 2),
            ("backend.name", "dram"),
        ]:
            assert spec_path_error(path) is None
            spec = spec.replace(path, value)
        assert spec.workload.num_queries == 5

    def test_replace_rejects_what_the_checker_rejects(self):
        with pytest.raises((ValueError, TypeError)):
            ScenarioSpec().replace("serving.concurency", 2)
        assert spec_path_error("serving.concurency") is not None


class TestSectionFields:
    def test_section_fields_match_dataclasses(self):
        assert "concurrency" in section_fields("serving")
        assert "num_queries" in section_fields("workload")
        with pytest.raises(ValueError):
            section_fields("nope")


class TestScenarioMetricError:
    def test_accepts_every_dataclass_field(self):
        for name in scenario_metrics():
            assert scenario_metric_error(name) is None

    def test_rejects_unknowns_listing_choices(self):
        error = scenario_metric_error("achieved_qpz")
        assert error is not None
        assert "achieved_qpz" in error
        assert "achieved_qps" in error


class TestMetricPathError:
    @pytest.mark.parametrize(
        "path",
        [
            "achieved_qps",
            "makespan_seconds",
            "latency_seconds.p99",
            "latency_seconds.mean",
            "queueing_seconds.p95",
            "power.fleet_power",
            "backend_stats.row cache hit rate",
        ],
    )
    def test_addressable_paths_pass(self, path):
        assert metric_path_error(path) is None

    @pytest.mark.parametrize(
        "path, fragment",
        [
            ("latency_seconds.p98", "p98"),
            ("latency_seconds", "percentile"),
            ("power.host_watts", "host_watts"),
            ("achieved_qps.p99", "achieved_qps"),
            ("no_such_metric", "no_such_metric"),
            ("tiers.0", "tiers"),
        ],
    )
    def test_unaddressable_paths_name_the_problem(self, path, fragment):
        error = metric_path_error(path)
        assert error is not None
        assert fragment in error

    def test_percentile_keys_match_summary_shape(self):
        result = ScenarioResult(
            scenario="s", backend_name="dram", num_queries=4, concurrency=1,
            makespan_seconds=0.1, achieved_qps=40.0,
            latency={"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03},
            meets_slo=True, slo_headroom=0.5,
        )
        assert set(PERCENTILE_KEYS) == set(result.to_dict()["latency_seconds"])


class TestResultDictKeys:
    def test_pinned_against_a_real_to_dict(self):
        result = ScenarioResult(
            scenario="s", backend_name="dram", num_queries=4, concurrency=1,
            makespan_seconds=0.1, achieved_qps=40.0,
            latency={"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03},
            meets_slo=True, slo_headroom=0.5,
            power=PowerSummary(platform="p", host_power=1.0, num_hosts=1, fleet_power=1.0),
            traffic_mode="open", offered_qps=50.0, dropped_queries=0,
            queueing={"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0},
            backend_stats={"hit rate": 0.9},
            tiers=[{"name": "dram"}],
        )
        assert set(result.to_dict()) <= set(result_dict_keys())

    def test_power_paths_track_the_dataclass(self):
        for field in dataclasses.fields(PowerSummary):
            assert metric_path_error(f"power.{field.name}") is None
