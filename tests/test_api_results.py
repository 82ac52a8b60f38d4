"""ScenarioResult serialisation and the campaign table formatter."""

import pytest

from repro import ScenarioResult, Session, ScenarioSpec, campaign_table
from repro.api import ModelChoice, PowerSummary, ServingChoice, WorkloadChoice


def make_result(**overrides):
    defaults = dict(
        scenario="s",
        backend_name="dram",
        num_queries=10,
        concurrency=1,
        makespan_seconds=0.5,
        achieved_qps=20.0,
        latency={"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03},
        meets_slo=True,
        slo_headroom=0.5,
    )
    defaults.update(overrides)
    return ScenarioResult(**defaults)


class FakeOutcome:
    def __init__(self, coords, result):
        self.coords = coords
        self.result = result


class TestScenarioResultFromDict:
    def test_round_trips_to_dict(self):
        result = make_result(
            backend_stats={"row cache hit rate": 0.9},
            power=PowerSummary(platform="HW-SS", host_power=1.0, num_hosts=3, fleet_power=3.0),
            traffic_mode="open",
            offered_qps=120.0,
            dropped_queries=2,
            queueing={"mean": 0.001, "p50": 0.001, "p95": 0.002, "p99": 0.003},
        )
        rebuilt = ScenarioResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.host_result is None
        assert rebuilt.power.platform == "HW-SS"
        assert rebuilt.queueing == result.queueing

    def test_round_trips_from_a_real_run(self):
        spec = ScenarioSpec(
            model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
            workload=WorkloadChoice(num_queries=12, num_users=40),
            serving=ServingChoice(concurrency=1, warmup_queries=0),
        )
        result = Session(spec).run()
        assert ScenarioResult.from_dict(result.to_dict()).to_dict() == result.to_dict()

    def test_to_dict_copies_and_drops_unstored_fields(self):
        result = make_result(trace={"traceEvents": []}, tiers=[{"tier": 0}])
        stored = result.to_dict()
        assert "trace" not in stored and "host_result" not in stored
        stored["latency_seconds"]["p99"] = 1.0
        stored["tiers"][0]["tier"] = 9
        assert result.latency["p99"] == 0.03
        assert result.tiers == [{"tier": 0}]
        assert ScenarioResult.from_dict(stored).trace is None

    def test_missing_optional_keys_take_field_defaults(self):
        stored = make_result().to_dict()
        for key in ("backend_stats", "serve_batch", "queueing_seconds", "tiers", "timeline"):
            del stored[key]
        rebuilt = ScenarioResult.from_dict(stored)
        assert rebuilt.backend_stats == {}
        assert rebuilt.serve_batch == 1
        assert rebuilt.queueing is None and rebuilt.tiers is None


class TestCampaignTable:
    def _outcomes(self):
        return [
            FakeOutcome(
                (("backend.name", "dram"), ("serving.concurrency", 1)),
                make_result(achieved_qps=100.0),
            ),
            FakeOutcome(
                (("backend.name", "sdm"), ("serving.concurrency", 2)),
                make_result(achieved_qps=50.0),
            ),
        ]

    def test_renders_axes_and_metric_columns(self):
        table = campaign_table(self._outcomes(), ["achieved_qps", "num_queries"])
        assert "backend.name" in table and "serving.concurrency" in table
        assert "achieved_qps" in table and "num_queries" in table
        assert "dram" in table and "sdm" in table

    def test_single_metric_string_accepted(self):
        assert "achieved_qps" in campaign_table(self._outcomes(), "achieved_qps")

    def test_metrics_are_checked_paths(self):
        with pytest.raises(ValueError, match="unknown metric path 'nope'"):
            campaign_table(self._outcomes(), "nope")

    def test_nested_paths_print_significant_digits(self):
        outcomes = self._outcomes()
        outcomes[0].result.latency["p99"] = 4.6e-5
        table = campaign_table(outcomes, ["latency_seconds.p99", "meets_slo"])
        assert "latency_seconds.p99" in table
        assert "4.6e-05" in table and "0.03" in table
        assert "True" in table

    def test_unknown_metric_raises_value_error_listing_fields(self):
        with pytest.raises(ValueError) as excinfo:
            campaign_table(self._outcomes(), "achieved_qpz")
        message = str(excinfo.value)
        assert "achieved_qpz" in message
        assert "achieved_qps" in message  # the result keys are listed
        assert "latency_seconds" in message

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            campaign_table([], "achieved_qps")
        with pytest.raises(ValueError, match="at least one metric"):
            campaign_table(self._outcomes(), [])
