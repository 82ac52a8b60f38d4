"""Tests for the event-driven serving engine (open loop + closed-loop parity)."""

import numpy as np
import pytest

from repro.serving import OpenLoopResult, ServingEngine
from repro.workload.generator import generate_arrival_times

from helpers import small_engine, small_model, small_queries, small_sdm


def _fresh(num_queries=30, concurrency=1, store_results=True):
    """A deterministic engine + query stream (fresh caches every call)."""
    model = small_model()
    sdm = small_sdm(model)
    engine = small_engine(model, sdm)
    serving = ServingEngine(engine, concurrency=concurrency, store_results=store_results)
    return serving, small_queries(model, num_queries)


def _seed_reference_run(engine, queries, concurrency, warmup_queries=0):
    """The seed's closed-loop simulator algorithm, replicated verbatim.

    Round-robin stream assignment, position-order execution, per-stream
    clocks — ``run_closed_loop`` must reproduce this exactly.  One line is
    not the seed's: ``reset_queues()`` after the warm-up prefix.  The seed
    started the measured clock at 0 behind the prefix's outstanding IOs and
    busy channels (also issued at 0), which made a warmed host look slower
    than a cold one; the warm-up now drops that backlog.
    """
    for query in queries[:warmup_queries]:
        engine.run_query(query, start_time=0.0)
    engine.user_backend.reset_queues()
    measured = queries[warmup_queries:]
    stream_clock = [0.0] * concurrency
    latencies, scores = [], []
    for position, query in enumerate(measured):
        stream = position % concurrency
        result = engine.run_query(query, start_time=stream_clock[stream])
        stream_clock[stream] += result.latency
        latencies.append(result.latency)
        scores.append(result.scores)
    return latencies, scores, max(stream_clock)


class TestClosedLoopParity:
    @pytest.mark.parametrize("concurrency,warmup", [(1, 0), (2, 5), (4, 0)])
    def test_identical_latencies_scores_and_makespan(self, concurrency, warmup):
        model = small_model()
        reference_engine = small_engine(model, small_sdm(model))
        queries = small_queries(model, 24)
        ref_latencies, ref_scores, ref_makespan = _seed_reference_run(
            reference_engine, queries, concurrency, warmup_queries=warmup
        )

        model2 = small_model()
        engine2 = small_engine(model2, small_sdm(model2))
        result = ServingEngine(engine2, concurrency=concurrency).run_closed_loop(
            small_queries(model2, 24), warmup_queries=warmup
        )

        assert result.latencies == ref_latencies
        assert result.makespan_seconds == ref_makespan
        for produced, expected in zip(result.results, ref_scores):
            np.testing.assert_array_equal(produced.scores, expected)

    def test_serving_simulator_exposes_engine_and_concurrency(self):
        """The engine and stream count a serving engine was built with are
        readable (the test id predates ``ServingEngine``)."""
        serving, _ = _fresh()
        simulator = ServingEngine(serving.engine, concurrency=3)
        assert simulator.concurrency == 3
        assert simulator.engine is serving.engine


class TestOpenLoop:
    def test_queueing_delay_is_real_above_capacity(self):
        """Offered load above capacity must show queueing in the p99."""
        closed_serving, queries = _fresh(60)
        closed = closed_serving.run_closed_loop(queries, warmup_queries=10)
        capacity = closed.num_queries / closed.makespan_seconds

        open_serving, queries2 = _fresh(60)
        arrivals = generate_arrival_times(
            50, process="poisson", offered_qps=3.0 * capacity, seed=7
        )
        result = open_serving.run_open_loop(
            queries2, arrivals, queue_depth=1000, warmup_queries=10
        )
        assert result.dropped_queries == 0
        # End-to-end p99 includes queueing delay, so it strictly exceeds the
        # closed-loop service-time p99.
        assert result.percentiles()["p99"] > closed.percentiles()["p99"]
        assert result.queueing_percentiles()["p99"] > 0.0

    def test_low_offered_load_sees_no_queueing(self):
        closed_serving, queries = _fresh(40)
        closed = closed_serving.run_closed_loop(queries, warmup_queries=10)
        capacity = closed.num_queries / closed.makespan_seconds

        open_serving, queries2 = _fresh(40)
        arrivals = generate_arrival_times(
            30, process="constant", offered_qps=0.2 * capacity
        )
        result = open_serving.run_open_loop(queries2, arrivals, warmup_queries=10)
        assert result.dropped_queries == 0
        assert max(result.queue_delays) == pytest.approx(0.0, abs=1e-12)
        # Latency == service time when nothing queues.
        assert result.latencies == pytest.approx(result.service_times)

    def test_zero_queue_depth_sheds_excess_load(self):
        serving, queries = _fresh(40, concurrency=1)
        # Everything arrives at t=0: one query is served immediately, the
        # rest find no waiting room and are shed.
        arrivals = [0.0] * 40
        result = serving.run_open_loop(queries, arrivals, queue_depth=0)
        assert result.offered_queries == 40
        assert result.dropped_queries > 0
        assert result.num_queries + result.dropped_queries == result.offered_queries

    def test_bounded_queue_limits_waiting_room(self):
        serving, queries = _fresh(20, concurrency=1)
        result = serving.run_open_loop(queries, [0.0] * 20, queue_depth=5)
        # 1 in service + 5 queued; the other 14 shed.
        assert result.num_queries == 6
        assert result.dropped_queries == 14

    def test_records_split_latency_into_queueing_plus_service(self):
        serving, queries = _fresh(30)
        arrivals = generate_arrival_times(30, process="poisson", offered_qps=500.0, seed=3)
        result = serving.run_open_loop(queries, arrivals, queue_depth=64)
        assert len(result.records) == result.num_queries
        for record in result.records:
            queue_delay = record.start_time - record.arrival_time
            assert record.latency == pytest.approx(queue_delay + record.service_time)
            assert queue_delay >= 0.0
            assert record.service_time > 0.0

    def test_makespan_and_offered_qps(self):
        serving, queries = _fresh(20)
        arrivals = generate_arrival_times(20, process="constant", offered_qps=100.0)
        result = serving.run_open_loop(queries, arrivals)
        assert result.offered_qps == pytest.approx(100.0)
        assert result.makespan_seconds >= arrivals[-1]
        assert result.achieved_qps == pytest.approx(
            result.num_queries / result.makespan_seconds
        )

    def test_trace_arrivals(self):
        serving, queries = _fresh(5)
        result = serving.run_open_loop(queries, [0.0, 0.01, 0.02, 0.5, 0.6])
        assert result.num_queries == 5

    def test_invalid_arguments_rejected(self):
        serving, queries = _fresh(10)
        with pytest.raises(ValueError):
            ServingEngine(serving.engine, concurrency=0)
        with pytest.raises(ValueError):
            serving.run_open_loop([], [])
        with pytest.raises(ValueError):
            serving.run_open_loop(queries, [0.0] * 3)  # length mismatch
        with pytest.raises(ValueError):
            serving.run_open_loop(queries, [0.0] * 9 + [-1.0])
        with pytest.raises(ValueError):
            serving.run_open_loop(queries, list(reversed(range(10))))
        with pytest.raises(ValueError):
            serving.run_open_loop(queries, [0.0] * 10, queue_depth=-1)
        with pytest.raises(ValueError):
            serving.run_open_loop(queries, [0.0] * 10, serve_batch=0)


class TestServeBatch:
    def test_serve_batch_one_is_the_classic_path(self):
        a, queries_a = _fresh(30)
        b, queries_b = _fresh(30)
        arrivals = generate_arrival_times(30, process="poisson", offered_qps=400.0, seed=2)
        classic = a.run_open_loop(queries_a, arrivals, queue_depth=16)
        explicit = b.run_open_loop(queries_b, arrivals, queue_depth=16, serve_batch=1)
        assert explicit.latencies == classic.latencies
        assert explicit.makespan_seconds == classic.makespan_seconds
        assert explicit.dropped_queries == classic.dropped_queries

    def test_freed_stream_drains_a_whole_batch(self):
        serving, queries = _fresh(9, concurrency=1)
        # All arrive at t=0 on one stream: the first query is served alone,
        # then each completion drains up to serve_batch=4 waiting queries
        # dispatched at the same simulated instant.
        result = serving.run_open_loop(queries, [0.0] * 9, serve_batch=4)
        assert result.num_queries == 9
        starts = sorted({record.start_time for record in result.records})
        batch_sizes = [
            sum(1 for record in result.records if record.start_time == start)
            for start in starts
        ]
        assert batch_sizes == [1, 4, 4]

    def test_batched_dispatch_blocks_stream_until_last_completion(self):
        serving, queries = _fresh(5, concurrency=1)
        result = serving.run_open_loop(queries, [0.0] * 5, serve_batch=4)
        batch_records = [r for r in result.records if r.start_time > 0.0]
        # The follow-up batch starts exactly when the first query completes.
        first = [r for r in result.records if r.start_time == 0.0]
        assert {r.start_time for r in batch_records} == {first[0].completion_time}


class TestStoreResults:
    def test_closed_loop_skips_query_results(self):
        serving, queries = _fresh(15, store_results=False)
        result = serving.run_closed_loop(queries)
        assert result.results == []
        assert len(result.latencies) == 15

    def test_open_loop_skips_results_and_records(self):
        serving, queries = _fresh(15, store_results=False)
        arrivals = generate_arrival_times(15, process="constant", offered_qps=50.0)
        result = serving.run_open_loop(queries, arrivals)
        assert result.results == []
        assert result.records == []
        assert len(result.latencies) == 15
        assert len(result.queue_delays) == 15

    def test_default_retains_results(self):
        serving, queries = _fresh(8)
        result = serving.run_closed_loop(queries)
        assert len(result.results) == 8


class TestOpenLoopResultMetrics:
    def _result(self, latencies, queue_delays, makespan=10.0, concurrency=1):
        service = [lat - q for lat, q in zip(latencies, queue_delays)]
        return OpenLoopResult(
            num_queries=len(latencies),
            concurrency=concurrency,
            makespan_seconds=makespan,
            latencies=list(latencies),
            offered_queries=len(latencies),
            queue_delays=list(queue_delays),
            service_times=service,
        )

    def test_percentile_helpers(self):
        result = self._result([0.02, 0.04], [0.01, 0.03])
        assert result.queueing_percentiles()["p50"] == pytest.approx(0.02)
