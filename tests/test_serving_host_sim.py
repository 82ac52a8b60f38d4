"""Tests for closed-loop host-level serving (``ServingEngine.run_closed_loop``)."""

import pytest

from repro.serving import LatencyTarget, ServingEngine
from repro.sim.units import MILLISECOND

from helpers import small_engine, small_model, small_queries, small_sdm


def _setup(num_queries=30, concurrency=1):
    model = small_model()
    sdm = small_sdm(model)
    engine = small_engine(model, sdm)
    serving = ServingEngine(engine, concurrency=concurrency)
    return serving, small_queries(model, num_queries), sdm


class TestServingSimulator:
    """The closed-loop simulation (the class name predates ``ServingEngine``
    and is kept so the test ids stay stable)."""

    def test_runs_all_queries(self):
        simulator, queries, _ = _setup(20)
        result = simulator.run_closed_loop(queries)
        assert result.num_queries == 20
        assert len(result.latencies) == 20

    def test_achieved_qps_consistent_with_makespan(self):
        simulator, queries, _ = _setup(20)
        result = simulator.run_closed_loop(queries)
        assert result.achieved_qps == pytest.approx(20 / result.makespan_seconds)

    def test_warmup_queries_excluded_from_measurement(self):
        simulator, queries, _ = _setup(30)
        result = simulator.run_closed_loop(queries, warmup_queries=10)
        assert result.num_queries == 20

    def test_warmup_improves_measured_latency(self):
        cold_sim, queries, _ = _setup(40)
        cold = cold_sim.run_closed_loop(queries)
        warm_sim, queries2, _ = _setup(40)
        warm = warm_sim.run_closed_loop(queries2, warmup_queries=20)
        assert warm.mean_latency <= cold.mean_latency * 1.05

    def test_concurrency_shortens_makespan(self):
        serial_sim, queries, _ = _setup(24, concurrency=1)
        parallel_sim, queries2, _ = _setup(24, concurrency=4)
        serial = serial_sim.run_closed_loop(queries)
        parallel = parallel_sim.run_closed_loop(queries2)
        assert parallel.makespan_seconds < serial.makespan_seconds

    def test_percentiles_and_targets(self):
        simulator, queries, _ = _setup(30)
        result = simulator.run_closed_loop(queries)
        stats = result.percentiles()
        assert stats["p50"] <= stats["p99"]
        target = LatencyTarget(95, 100 * MILLISECOND)
        assert result.meets(target)
        assert result.qps_at_latency(target) > 0

    def test_qps_at_latency_penalises_violations(self):
        simulator, queries, _ = _setup(30)
        result = simulator.run_closed_loop(queries)
        strict = LatencyTarget(95, result.percentile_latency(95) / 10)
        loose = LatencyTarget(95, result.percentile_latency(95) * 10)
        assert result.qps_at_latency(strict) < result.qps_at_latency(loose)

    def test_invalid_arguments_rejected(self):
        simulator, queries, _ = _setup(5)
        with pytest.raises(ValueError):
            ServingEngine(simulator.engine, concurrency=0)
        with pytest.raises(ValueError):
            simulator.run_closed_loop([])
        with pytest.raises(ValueError):
            simulator.run_closed_loop(queries, warmup_queries=-1)
        with pytest.raises(ValueError):
            simulator.run_closed_loop(queries, warmup_queries=5)


class TestHostSimulationResult:
    def test_mean_latency_empty_latencies_is_zero(self):
        """Regression: an empty latency list used to raise ZeroDivisionError."""
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=0, concurrency=1, makespan_seconds=0.0, latencies=[]
        )
        assert result.mean_latency == 0.0
        assert result.achieved_qps == 0.0

    def test_mean_latency_matches_sample_mean(self):
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=3, concurrency=1, makespan_seconds=6.0, latencies=[1.0, 2.0, 3.0]
        )
        assert result.mean_latency == pytest.approx(2.0)

    def test_qps_at_latency_within_budget_uses_full_stream_rate(self):
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=4, concurrency=2, makespan_seconds=8.0, latencies=[2.0] * 4
        )
        # Observed p95 (2 s) is within budget: one query per stream per 2 s.
        assert result.qps_at_latency(LatencyTarget(95, 4.0)) == pytest.approx(1.0)

    def test_qps_at_latency_sheds_load_when_budget_exceeded(self):
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=4, concurrency=1, makespan_seconds=8.0, latencies=[2.0] * 4
        )
        # Observed p95 (2 s) is twice the 1 s budget: the raw 0.5 QPS stream
        # rate is scaled down by budget/observed = 0.5 -> 0.25 QPS.
        assert result.qps_at_latency(LatencyTarget(95, 1.0)) == pytest.approx(0.25)
        # Shedding is monotone: a tighter budget sustains strictly less.
        assert result.qps_at_latency(LatencyTarget(95, 0.5)) < result.qps_at_latency(
            LatencyTarget(95, 1.0)
        )
