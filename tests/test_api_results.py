"""ScenarioResult serialisation and the campaign table formatter."""

import pytest

from repro import ScenarioResult, Session, ScenarioSpec, campaign_table
from repro.api import ModelChoice, PowerSummary, ServingChoice, WorkloadChoice
from repro.api.results import scenario_metrics


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

    def test_shares_sweep_table_metric_validation(self):
        with pytest.raises(ValueError, match="valid ScenarioResult metrics"):
            campaign_table(self._outcomes(), "nope")

    def test_unknown_metric_raises_value_error_listing_fields(self):
        with pytest.raises(ValueError) as excinfo:
            campaign_table(self._outcomes(), "achieved_qpz")
        message = str(excinfo.value)
        assert "achieved_qpz" in message
        assert "achieved_qps" in message  # the valid fields are listed
        assert "latency" in message

    def test_scenario_metrics_lists_dataclass_fields(self):
        metrics = scenario_metrics()
        assert "achieved_qps" in metrics
        assert "latency" in metrics
        assert metrics == sorted(metrics)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            campaign_table([], "achieved_qps")
        with pytest.raises(ValueError, match="at least one metric"):
            campaign_table(self._outcomes(), [])
