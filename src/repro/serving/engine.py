"""Event-driven serving engine: one engine, open- and closed-loop traffic.

The paper's end-to-end claims (Table 8/9 per-host QPS, Figure 6 placement
sensitivity) are statements about latency *under load*, so the serving
harness must model load honestly.  This module runs a query stream through an
:class:`~repro.dlrm.inference.InferenceEngine` on top of the discrete-event
core in :mod:`repro.sim.events`, in one of two modes:

Open loop (:meth:`ServingEngine.run_open_loop`)
    Queries arrive on their own schedule (Poisson, constant rate, or a
    recorded trace — see :func:`repro.workload.generator.generate_arrival_times`)
    regardless of whether the host keeps up.  Arrivals are events on a
    :class:`~repro.sim.events.Simulator`; a bounded admission queue feeds
    ``concurrency`` serving streams, and queries that find the queue full are
    shed.  Each served query's latency splits into queueing delay (admission
    to dispatch) plus service time, so saturation shows up as a p99 knee the
    way it does on real hosts.  Because a query is dispatched at its true
    simulated start time, the storage layer's outstanding-IO windows
    (:class:`~repro.storage.io_engine.IOEngineConfig` queue-depth limits)
    overlap across queries that are genuinely in flight together — the limits
    act as simulated-time backpressure that delays completions, not merely as
    an analytic cost added at time zero.

Closed loop (:meth:`ServingEngine.run_closed_loop`)
    ``concurrency`` independent streams, each issuing its next query the
    instant the previous one completes.  Queries are assigned to streams
    round-robin by position and executed in position order.  The execution
    order is part of the contract: embedding backends are stateful (caches,
    outstanding-IO windows), so the deterministic schedule is what makes a
    run's latencies and scores reproducible.  The open-loop event machinery
    is bypassed only for *dispatch ordering*; the measurement, bookkeeping
    and result assembly are shared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dlrm.inference import InferenceEngine, Query, QueryResult
from repro.obs.metrics import MetricsSampler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.serving.latency import LatencyTarget, latency_percentiles
from repro.sim.events import Simulator


@dataclass(frozen=True)
class QueryRecord:
    """Timing of one served query: arrival → dispatch → completion."""

    query_id: int
    arrival_time: float
    start_time: float
    completion_time: float

    @property
    def service_time(self) -> float:
        """Time spent actually executing on a serving stream."""
        return self.completion_time - self.start_time

    @property
    def latency(self) -> float:
        """End-to-end latency the client observes (queueing + service)."""
        return self.completion_time - self.arrival_time


@dataclass
class HostSimulationResult:
    """Outcome of serving one query stream on one simulated host."""

    num_queries: int
    concurrency: int
    makespan_seconds: float
    latencies: List[float]
    results: List[QueryResult] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.num_queries / self.makespan_seconds

    def percentiles(self) -> Dict[str, float]:
        return latency_percentiles(self.latencies)

    def meets(self, target: LatencyTarget) -> bool:
        return target.met_by(self.latencies)


@dataclass
class OpenLoopResult(HostSimulationResult):
    """Outcome of one open-loop run: latency split plus admission accounting.

    ``latencies`` (inherited) hold the end-to-end client latency of every
    *served* query — queueing delay plus service time — so the inherited
    percentile/SLO helpers report what a client would measure.  Shed queries
    contribute to ``dropped_queries`` only.
    """

    offered_queries: int = 0
    dropped_queries: int = 0
    offered_qps: float = 0.0
    queue_delays: List[float] = field(default_factory=list)
    service_times: List[float] = field(default_factory=list)
    records: List[QueryRecord] = field(default_factory=list)

    def queueing_percentiles(self) -> Dict[str, float]:
        """Queue-delay percentiles (p50/p95/p99 + mean) of served queries."""
        return latency_percentiles(self.queue_delays)


class ServingEngine:
    """Serves query streams through an inference engine on one simulated host.

    Parameters
    ----------
    engine:
        The inference engine (whose user backend may be DRAM or SDM).
    concurrency:
        Number of serving streams ("servers") executing queries in parallel.
    store_results:
        When ``False``, per-query :class:`~repro.dlrm.inference.QueryResult`
        objects and :class:`QueryRecord` timings are not retained — only the
        scalar latency lists needed for percentiles — which keeps 10⁵+-query
        open-loop sweeps at a small, constant memory footprint.
    recorder:
        A :class:`~repro.obs.trace.TraceRecorder` receiving per-query spans
        (queue wait, service) on the simulated clock.  The default no-op
        recorder keeps the serve path bit-identical to an uninstrumented
        build; every emission is guarded by ``recorder.enabled``.
    sampler:
        A started-by-the-engine :class:`~repro.obs.metrics.MetricsSampler`
        snapshotting cumulative counters every N simulated seconds.  The
        engine registers its admission counters/gauges, baselines the
        sampler after warmup, and drives it from its event handlers — the
        sampler never schedules simulator events, so the measured makespan
        is untouched.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        concurrency: int = 1,
        store_results: bool = True,
        recorder: Optional[TraceRecorder] = None,
        sampler: Optional[MetricsSampler] = None,
    ) -> None:
        if concurrency <= 0:
            raise ValueError(f"concurrency must be positive: {concurrency}")
        self.engine = engine
        self.concurrency = concurrency
        self.store_results = store_results
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.sampler = sampler

    # ------------------------------------------------------------- closed loop
    def run_closed_loop(
        self, queries: Sequence[Query], warmup_queries: int = 0
    ) -> HostSimulationResult:
        """Serve ``queries`` closed-loop across ``concurrency`` streams.

        The first ``warmup_queries`` go through :meth:`warm_up` (so caches warm
        up) and are excluded from the reported latencies and the makespan,
        mirroring the paper's focus on steady-state behaviour.  The schedule
        (round-robin stream assignment, position-order execution) is pinned
        by ``tests/test_serving_engine.py`` against a verbatim reference loop.
        """
        measured = self.warm_up(queries, warmup_queries)
        recorder = self.recorder
        tracing = recorder.enabled
        sampler = self.sampler
        flow = {"served": 0}
        if sampler is not None:
            sampler.add_counters("engine", lambda: dict(flow))
            sampler.start(0.0)
        stream_clock = [0.0] * self.concurrency
        latencies: List[float] = []
        results: List[QueryResult] = []
        for position, query in enumerate(measured):
            stream = position % self.concurrency
            start = stream_clock[stream]
            if sampler is not None:
                sampler.advance(start)
            if tracing:
                recorder.set_track(stream + 1)
            result = self.engine.run_query(query, start_time=start)
            stream_clock[stream] += result.latency
            latencies.append(result.latency)
            if sampler is not None:
                flow["served"] += 1
            if tracing:
                recorder.span(
                    "serve",
                    "engine",
                    start,
                    result.latency,
                    tid=stream + 1,
                    args={"query_id": query.query_id},
                )
            if self.store_results:
                results.append(result)
        if sampler is not None:
            sampler.finish(max(stream_clock))
        if tracing:
            self._name_stream_tracks(recorder)

        return HostSimulationResult(
            num_queries=len(measured),
            concurrency=self.concurrency,
            makespan_seconds=max(stream_clock),
            latencies=latencies,
            results=results,
        )

    # -------------------------------------------------------------- open loop
    def run_open_loop(
        self,
        queries: Sequence[Query],
        arrival_times: Sequence[float],
        queue_depth: int = 64,
        warmup_queries: int = 0,
        serve_batch: int = 1,
    ) -> OpenLoopResult:
        """Serve ``queries`` arriving at ``arrival_times`` (open loop).

        ``arrival_times`` are absolute simulated seconds for the *measured*
        queries (those after the first ``warmup_queries``), non-decreasing.
        A query that arrives while all streams are busy waits in a FIFO
        admission queue of capacity ``queue_depth``; if the queue is full the
        query is shed (counted, not served).  ``queue_depth=0`` models a pure
        loss system.

        ``serve_batch`` is how many waiting queries a freed stream drains at
        once: each query in the drained batch is dispatched at the same
        simulated instant (FIFO order, per-query records), and the stream
        stays busy until the last of them completes.  The default of 1 is
        exactly the classic one-query-per-dispatch behaviour.
        """
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be non-negative: {queue_depth}")
        if serve_batch < 1:
            raise ValueError(f"serve_batch must be positive: {serve_batch}")
        measured = self.warm_up(queries, warmup_queries)
        if len(arrival_times) != len(measured):
            raise ValueError(
                f"arrival_times ({len(arrival_times)}) must match the measured "
                f"queries ({len(measured)})"
            )
        previous = 0.0
        for time in arrival_times:
            if time < 0:
                raise ValueError(f"arrival times must be non-negative: {time}")
            if time < previous:
                raise ValueError("arrival times must be non-decreasing")
            previous = time

        sim = Simulator()
        free_servers = [self.concurrency]
        waiting: Deque[Tuple[Query, float]] = deque()
        latencies: List[float] = []
        queue_delays: List[float] = []
        service_times: List[float] = []
        records: List[QueryRecord] = []
        results: List[QueryResult] = []
        dropped = [0]

        recorder = self.recorder
        tracing = recorder.enabled
        sampler = self.sampler
        # Streams get stable trace track ids (1..concurrency; 0 is the
        # admission track) via a free list; only maintained when tracing so
        # the untraced path runs the exact pre-trace instruction stream.
        free_streams = list(range(self.concurrency, 0, -1)) if tracing else []
        flow = {"offered": 0, "served": 0, "dropped": 0}
        if sampler is not None:
            sampler.add_counters("engine", lambda: dict(flow))
            sampler.add_gauge("queue_depth", lambda: float(len(waiting)))
            sampler.add_gauge(
                "busy_streams", lambda: float(self.concurrency - free_servers[0])
            )
            sampler.start(0.0)

        def start_service(batch: List[Tuple[Query, float]]) -> None:
            free_servers[0] -= 1
            tid = free_streams.pop() if tracing else 0
            if tracing:
                recorder.set_track(tid)
            now = sim.clock.now
            batch_done = now
            for query, arrival in batch:
                result = self.engine.run_query(query, start_time=now)
                completion = now + result.latency
                batch_done = max(batch_done, completion)
                latencies.append(completion - arrival)
                queue_delays.append(now - arrival)
                service_times.append(result.latency)
                if sampler is not None:
                    flow["served"] += 1
                if tracing:
                    recorder.span(
                        "queue",
                        "engine",
                        arrival,
                        now - arrival,
                        tid=tid,
                        args={"query_id": query.query_id},
                    )
                    recorder.span(
                        "serve",
                        "engine",
                        now,
                        result.latency,
                        tid=tid,
                        args={"query_id": query.query_id},
                    )
                if self.store_results:
                    results.append(result)
                    records.append(
                        QueryRecord(
                            query_id=query.query_id,
                            arrival_time=arrival,
                            start_time=now,
                            completion_time=completion,
                        )
                    )
            sim.schedule_at(batch_done, lambda: on_complete(tid))

        def on_complete(tid: int) -> None:
            if sampler is not None:
                sampler.advance(sim.clock.now)
            if tracing:
                free_streams.append(tid)
            free_servers[0] += 1
            if waiting:
                batch = [
                    waiting.popleft()
                    for _ in range(min(serve_batch, len(waiting)))
                ]
                start_service(batch)

        def on_arrival(query: Query) -> None:
            arrival = sim.clock.now
            if sampler is not None:
                sampler.advance(arrival)
                flow["offered"] += 1
            if free_servers[0] > 0:
                start_service([(query, arrival)])
            elif len(waiting) < queue_depth:
                waiting.append((query, arrival))
                if tracing:
                    recorder.counter(
                        "admission", arrival, {"queue_depth": len(waiting)}
                    )
            else:
                dropped[0] += 1
                if sampler is not None:
                    flow["dropped"] += 1
                if tracing:
                    recorder.instant(
                        "drop",
                        "engine",
                        arrival,
                        tid=0,
                        args={"query_id": query.query_id},
                    )

        for query, time in zip(measured, arrival_times):
            sim.schedule_at(time, lambda query=query: on_arrival(query))
        sim.run()

        makespan = sim.clock.now
        if sampler is not None:
            sampler.finish(makespan)
        if tracing:
            self._name_stream_tracks(recorder)
        offered_qps = 0.0
        if len(arrival_times) > 1:
            span = arrival_times[-1] - arrival_times[0]
            if span > 0:
                offered_qps = (len(arrival_times) - 1) / span
        return OpenLoopResult(
            num_queries=len(latencies),
            concurrency=self.concurrency,
            makespan_seconds=makespan,
            latencies=latencies,
            results=results,
            offered_queries=len(measured),
            dropped_queries=dropped[0],
            offered_qps=offered_qps,
            queue_delays=queue_delays,
            service_times=service_times,
            records=records,
        )

    # ---------------------------------------------------------------- warm-up
    def warm_up(self, queries: Sequence[Query], warmup_queries: int) -> Sequence[Query]:
        """Serve the first ``warmup_queries`` untraced; return the measured tail.

        What the prefix leaves behind is the state a long-running host would
        have: cached rows and pages, and the position of every random stream.
        What it must not leave behind is anything stamped with its own clock
        — the prefix is issued at simulated t=0 and the measured window also
        starts at t=0, so every ``queue`` attribute (outstanding IOs, busy
        device channels, in-flight page faults) goes back to its as-built
        value (``reset_queues``) rather than carrying a backlog the first
        measured queries would wait behind.  Counters keep counting;
        ``backend.reset_stats()`` puts them back to as-built if wanted.
        """
        if not queries:
            raise ValueError("run() needs at least one query")
        if warmup_queries < 0:
            raise ValueError(f"warmup_queries must be non-negative: {warmup_queries}")
        if warmup_queries >= len(queries):
            raise ValueError(
                f"warmup_queries ({warmup_queries}) must leave measured queries "
                f"({len(queries)} supplied)"
            )
        if warmup_queries:
            # Spans from the prefix would overlap the measured ones at time 0.
            self.recorder.pause()
            try:
                for query in queries[:warmup_queries]:
                    self.engine.run_query(query, start_time=0.0)
            finally:
                self.recorder.resume()
            self.engine.user_backend.reset_queues()
            self.engine.item_backend.reset_queues()
        return queries[warmup_queries:]

    # -------------------------------------------------------------- internals
    def _name_stream_tracks(self, recorder: TraceRecorder) -> None:
        """Label the per-stream trace tracks on recorders that support it."""
        name_thread = getattr(recorder, "name_thread", None)
        if callable(name_thread):
            for stream in range(self.concurrency):
                name_thread(stream + 1, f"stream {stream}")
