"""Schema introspection: the bridge between the lint rules and the live
ScenarioSpec/ScenarioResult dataclasses."""

import dataclasses

import pytest

from repro.api.results import (
    PERCENTILE_KEYS,
    PowerSummary,
    ScenarioResult,
    metric_path_error,
    metric_value,
    result_dict_keys,
)
from repro.api.session import Session
from repro.api.spec import (
    BackendChoice,
    ModelChoice,
    ScenarioSpec,
    ServingChoice,
    TelemetrySpec,
    TrafficSpec,
    WorkloadChoice,
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
            "backend.options.row_cache_capacity_bytes",
            "backend.options.tiers.1.capacity",
            "tiers.1.capacity",  # the documented shorthand
            "tiers.0.cache",
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
            ("tiers.0.cache_bytes", "cache_bytes"),
            ("backend.options.row_cach_capacity_bytes", "unknown SDM options"),
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
            ("power", "PowerSummary field"),
            ("backend_stats", "backend stat"),
            ("backend_stats.row cache hit rate.x", "backend stat"),
            # Field names that are not stored keys are not metrics.
            ("latency", "latency"),
            ("backend_name", "backend_name"),
            ("host_result", "host_result"),
            ("trace", "trace"),
        ],
    )
    def test_unaddressable_paths_name_the_problem(self, path, fragment):
        error = metric_path_error(path)
        assert error is not None
        assert fragment in error

    def test_unknown_keys_list_the_result_keys(self):
        error = metric_path_error("achieved_qpz")
        assert "achieved_qpz" in error and "achieved_qps" in error
        assert "latency_seconds" in error

    def test_percentile_keys_match_summary_shape(self):
        result = ScenarioResult(
            scenario="s", backend_name="dram", num_queries=4, concurrency=1,
            makespan_seconds=0.1, achieved_qps=40.0,
            latency={"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03},
            meets_slo=True, slo_headroom=0.5,
        )
        assert set(PERCENTILE_KEYS) == set(result.to_dict()["latency_seconds"])


def stored_leaves(node, prefix=""):
    """(path, value) for every container and leaf under a stored dict."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        yield path, value
        if isinstance(value, dict):
            yield from stored_leaves(value, f"{path}.")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                yield f"{path}.{index}", item
                yield from stored_leaves(item, f"{path}.{index}.")


class TestStoredSchema:
    """Every number the stored form holds is a metric, except inside the
    per-tier list and the timeline window series; no container is."""

    @pytest.fixture(scope="class")
    def stored(self):
        spec = ScenarioSpec(
            model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
            backend=BackendChoice(name="tiered"),
            workload=WorkloadChoice(num_queries=20, num_users=40),
            traffic=TrafficSpec(mode="open", arrival="poisson", offered_qps=2000.0),
            serving=ServingChoice(
                concurrency=1, warmup_queries=0, platform="HW-SS",
                baseline_platform="HW-L", fleet_qps=100000.0,
            ),
            telemetry=TelemetrySpec(sample_interval=0.002),
        )
        stored = Session(spec).run().to_dict()
        assert stored["traffic_mode"] == "open"
        assert stored["power"]["power_saving"] is not None
        assert stored["tiers"] and stored["queueing_seconds"] and stored["timeline"]
        return stored

    def test_every_number_is_a_checked_metric(self, stored):
        numbers = [
            (path, value)
            for path, value in stored_leaves(stored)
            if isinstance(value, (int, float))
        ]
        assert len(numbers) > 20
        for path, value in numbers:
            if path.split(".")[0] in ("tiers", "timeline"):
                assert metric_path_error(path) is not None, path
                continue
            assert metric_path_error(path) is None, path
            assert metric_value(stored, path) == value, path

    def test_every_container_is_rejected(self, stored):
        containers = [
            path for path, value in stored_leaves(stored)
            if isinstance(value, (dict, list))
        ]
        assert {
            "latency_seconds", "queueing_seconds", "power", "backend_stats",
            "tiers", "tiers.0", "timeline",
        } <= set(containers)
        for path in containers:
            assert metric_path_error(path) is not None, path


class TestResultDictKeys:
    def test_match_to_dict_in_order(self):
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
        assert tuple(result.to_dict()) == result_dict_keys()

    def test_power_paths_track_the_dataclass(self):
        for field in dataclasses.fields(PowerSummary):
            assert metric_path_error(f"power.{field.name}") is None
