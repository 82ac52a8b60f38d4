"""compare_runs: direction-aware per-metric regression detection."""

import pytest

from repro import ExperimentStore, ScenarioSpec, compare_runs
from repro.runtime import MetricSpec
from repro.runtime.compare import _is_regression


def result_dict(qps=100.0, p99=0.010, dropped=0, **overrides):
    base = {
        "scenario": "s",
        "backend": "dram",
        "num_queries": 10,
        "concurrency": 1,
        "makespan_seconds": 0.5,
        "achieved_qps": qps,
        "latency_seconds": {"mean": p99 / 2, "p50": p99 / 2, "p95": p99, "p99": p99},
        "meets_slo": True,
        "slo_headroom": 0.5,
        "backend_stats": {},
        "power": None,
        "traffic_mode": "closed",
        "offered_qps": None,
        "dropped_queries": dropped,
        "queueing_seconds": None,
    }
    base.update(overrides)
    return base


def make_store(tmp_path, name, points):
    """points: {scenario_name: result_dict}; spec == name so hashes align."""
    store = ExperimentStore(tmp_path / name)
    for index, (scenario, result) in enumerate(points.items()):
        store.put(ScenarioSpec(name=scenario), result, index=index)
    return store


class TestCompareRuns:
    def test_identical_runs_have_zero_regressions(self, tmp_path):
        points = {"a": result_dict(), "b": result_dict(qps=50.0)}
        base = make_store(tmp_path, "base", points)
        cand = make_store(tmp_path, "cand", points)
        comparison = compare_runs(base, cand)
        assert comparison.compared_points == 2
        assert comparison.regressions == []
        assert comparison.spec_drift == []
        assert "0 regression(s)" in comparison.table()

    def test_direction_awareness(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict(qps=100.0, p99=0.010)})
        cand = make_store(
            tmp_path, "cand", {"a": result_dict(qps=80.0, p99=0.005)}
        )
        comparison = compare_runs(base, cand)
        by_metric = {delta.metric: delta for delta in comparison.deltas}
        assert by_metric["achieved_qps"].regressed  # lower qps is worse
        assert not by_metric["latency_seconds.p99"].regressed  # lower p99 is better
        # And the mirror image: p99 growing is a regression.
        worse_p99 = compare_runs(
            make_store(tmp_path, "b2", {"a": result_dict(p99=0.010)}),
            make_store(tmp_path, "c2", {"a": result_dict(p99=0.020)}),
        )
        assert [d.metric for d in worse_p99.regressions] == ["latency_seconds.p99"]

    def test_tolerance_absorbs_small_movements(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict(qps=100.0)})
        cand = make_store(tmp_path, "cand", {"a": result_dict(qps=97.0)})
        assert compare_runs(base, cand).regressions  # 3% drop, zero tolerance
        assert not compare_runs(base, cand, tolerance=0.05).regressions

    def test_dropped_queries_regression(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict(dropped=0)})
        cand = make_store(tmp_path, "cand", {"a": result_dict(dropped=7)})
        regressions = compare_runs(base, cand).regressions
        assert [delta.metric for delta in regressions] == ["dropped_queries"]

    def test_unmatched_points_are_reported_not_compared(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict(), "b": result_dict()})
        cand = make_store(tmp_path, "cand", {"b": result_dict(), "c": result_dict()})
        comparison = compare_runs(base, cand)
        assert comparison.compared_points == 1
        assert comparison.only_in_baseline == ["a"]
        assert comparison.only_in_candidate == ["c"]
        assert "only in baseline" in comparison.table()

    def test_runs_with_no_point_in_common_raise(self, tmp_path):
        """Zero matched points is a mismatched run, not zero regressions."""
        base = make_store(tmp_path, "base", {"a": result_dict()})
        cand = make_store(tmp_path, "cand", {"b": result_dict(qps=1.0)})
        with pytest.raises(ValueError, match="nothing to compare"):
            compare_runs(base, cand)

    def test_spec_drift_is_flagged_but_still_compared(self, tmp_path):
        """Same point name, different spec: a config A/B, compared with a flag."""
        base_store = ExperimentStore(tmp_path / "base")
        base_store.put(ScenarioSpec(name="a"), result_dict(qps=100.0))
        cand_store = ExperimentStore(tmp_path / "cand")
        cand_store.put(
            ScenarioSpec(name="a").replace("serving.concurrency", 4),
            result_dict(qps=100.0),
        )
        comparison = compare_runs(base_store, cand_store)
        assert comparison.compared_points == 1
        assert comparison.spec_drift == ["a"]
        assert all(not delta.specs_match for delta in comparison.deltas)
        assert "spec drift" in comparison.table()

    def test_missing_metric_values_are_skipped(self, tmp_path):
        queueing = {"mean": 0.001, "p50": 0.001, "p95": 0.002, "p99": 0.003}
        points = {
            "closed": result_dict(),
            "open": result_dict(traffic_mode="open", queueing_seconds=queueing),
        }
        base = make_store(tmp_path, "base", points)
        cand = make_store(tmp_path, "cand", points)
        comparison = compare_runs(
            base, cand, metrics=["queueing_seconds.p99", "achieved_qps"]
        )
        # Closed-loop points have no queueing percentiles: only qps compares.
        assert [(delta.scenario, delta.metric) for delta in comparison.deltas] == [
            ("closed", "achieved_qps"),
            ("open", "queueing_seconds.p99"),
            ("open", "achieved_qps"),
        ]

    @pytest.mark.parametrize(
        "metric",
        ["queueing_seconds.p99", "backend_stats.nonexistent", "scenario"],
    )
    def test_a_metric_with_no_number_on_any_point_raises(self, tmp_path, metric):
        base = make_store(tmp_path, "base", {"a": result_dict(), "b": result_dict()})
        with pytest.raises(ValueError, match="none of the 2 matched point"):
            compare_runs(base, base, metrics=[metric])

    @pytest.mark.parametrize("metric", ["achieved_qsp", "power", "backend_stats"])
    def test_unaddressable_metrics_raise_before_comparing(self, tmp_path, metric):
        base = make_store(tmp_path, "base", {"a": result_dict()})
        with pytest.raises(ValueError, match="metric path"):
            compare_runs(base, base, metrics=[metric])

    def test_table_prints_significant_digits(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict(p99=4.6e-5)})
        cand = make_store(tmp_path, "cand", {"a": result_dict(p99=4.8e-5)})
        table = compare_runs(base, cand, metrics=["latency_seconds.p99"]).table()
        assert "4.6e-05" in table and "4.8e-05" in table and "2e-06" in table

    def test_to_dict_is_json_shaped(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict()})
        payload = compare_runs(base, base).to_dict()
        assert payload["compared_points"] == 1
        assert payload["num_regressions"] == 0
        assert isinstance(payload["deltas"], list)

    def test_invalid_tolerance(self, tmp_path):
        base = make_store(tmp_path, "base", {"a": result_dict()})
        with pytest.raises(ValueError, match="tolerance"):
            compare_runs(base, base, tolerance=-0.1)


class TestMetricSpec:
    def test_parse_defaults(self):
        assert MetricSpec.parse("achieved_qps").higher_is_better
        assert not MetricSpec.parse("latency_seconds.p99").higher_is_better
        assert not MetricSpec.parse("dropped_queries").higher_is_better

    def test_parse_explicit_direction(self):
        assert MetricSpec.parse("backend_stats.row cache hit rate:higher").higher_is_better
        assert not MetricSpec.parse("achieved_qps:lower").higher_is_better

    def test_parse_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="higher"):
            MetricSpec.parse("achieved_qps:sideways")

    @pytest.mark.parametrize("text", ["achieved_qsp", "power", "latency", "x:lower"])
    def test_paths_are_checked_when_parsed(self, text):
        with pytest.raises(ValueError, match="metric path"):
            MetricSpec.parse(text)
        with pytest.raises(ValueError, match="metric path"):
            MetricSpec(text.partition(":")[0], higher_is_better=True)

    @pytest.mark.parametrize(
        "path",
        [
            "backend_stats.row cache hit rate",
            "backend_stats.pooled cache hit rate",
            "power.power_saving",
        ],
    )
    def test_rates_and_savings_default_to_higher_is_better(self, path):
        metric = MetricSpec.parse(path)
        assert metric.higher_is_better
        assert not _is_regression(metric, 0.5, 0.6, tolerance=0.0)
        assert _is_regression(metric, 0.6, 0.5, tolerance=0.0)
        assert not MetricSpec.parse(f"{path}:lower").higher_is_better
