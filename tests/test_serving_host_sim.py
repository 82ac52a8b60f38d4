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
        assert warm.percentiles()["mean"] <= cold.percentiles()["mean"] * 1.05

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
    def test_empty_run_has_zero_achieved_qps(self):
        """A run with no measured queries reports 0 QPS, not a division by zero."""
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=0, concurrency=1, makespan_seconds=0.0, latencies=[]
        )
        assert result.achieved_qps == 0.0

    def test_mean_latency_is_the_sample_mean(self):
        from repro.serving import HostSimulationResult

        result = HostSimulationResult(
            num_queries=3, concurrency=1, makespan_seconds=6.0, latencies=[1.0, 2.0, 3.0]
        )
        assert result.percentiles()["mean"] == pytest.approx(2.0)
