"""Telemetry must be invisible to the simulation.

Two guarantees are pinned here: (1) with telemetry disabled — the default —
the serving path is bit-identical to the seed behaviour (no recorder, no
sampler, no schema side effects); (2) even with every telemetry knob *on*,
the simulated results (per-query scores and latencies, aggregate statistics,
makespan) are bit-identical to the telemetry-off run, because spans and
samples only observe state the simulation already produced."""

from collections import Counter

import numpy as np

from repro.api import ScenarioSpec, Session, TelemetrySpec
from repro.api.spec import ServingChoice, TrafficSpec, WorkloadChoice
from repro.obs.trace import NULL_RECORDER

FULL_TELEMETRY = TelemetrySpec(trace=True, sample_interval=0.02)

OPEN_SPEC = ScenarioSpec(
    name="obs-parity",
    workload=WorkloadChoice(num_queries=80),
    serving=ServingChoice(concurrency=2, warmup_queries=20),
    traffic=TrafficSpec(
        mode="open", arrival="poisson", offered_qps=400.0, queue_depth=8, serve_batch=2
    ),
)
CLOSED_SPEC = ScenarioSpec(
    name="obs-parity-closed",
    workload=WorkloadChoice(num_queries=60),
    serving=ServingChoice(concurrency=2, warmup_queries=10),
)


def _with_telemetry(spec: ScenarioSpec) -> ScenarioSpec:
    return spec.replace("telemetry", FULL_TELEMETRY)


def _assert_identical(off, on):
    assert off.latency == on.latency
    assert off.makespan_seconds == on.makespan_seconds
    assert off.achieved_qps == on.achieved_qps
    assert off.dropped_queries == on.dropped_queries
    assert off.queueing == on.queueing
    assert off.backend_stats == on.backend_stats
    assert off.tiers == on.tiers
    assert len(off.host_result.results) == len(on.host_result.results)
    for a, b in zip(off.host_result.results, on.host_result.results):
        assert a.latency == b.latency
        assert np.array_equal(a.scores, b.scores)


class TestTelemetryOffIsTheSeedPath:
    def test_default_spec_has_no_telemetry(self):
        spec = ScenarioSpec()
        assert spec.telemetry.enabled is False

    def test_engine_defaults_to_the_shared_null_recorder(self):
        session = Session(CLOSED_SPEC)
        recorder, sampler = session._telemetry()
        assert recorder is NULL_RECORDER
        assert sampler is None

    def test_result_has_no_timeline_or_trace(self):
        result = Session(CLOSED_SPEC).run()
        assert result.timeline is None
        assert result.trace is None
        assert result.to_dict()["timeline"] is None

    def test_backend_recorder_stays_null(self):
        session = Session(CLOSED_SPEC)
        session.run()
        assert session.backend.recorder is NULL_RECORDER
        assert session.backend.chain.recorder is NULL_RECORDER


class TestTelemetryOnIsBitIdentical:
    def test_open_loop(self):
        off = Session(OPEN_SPEC).run()
        on = Session(_with_telemetry(OPEN_SPEC)).run()
        _assert_identical(off, on)
        assert on.trace is not None and on.timeline is not None

    def test_closed_loop(self):
        off = Session(CLOSED_SPEC).run()
        on = Session(_with_telemetry(CLOSED_SPEC)).run()
        _assert_identical(off, on)
        assert on.trace is not None and on.timeline is not None

    def test_telemetry_does_not_change_the_spec_identity_axes(self):
        # The telemetry section *is* part of the spec hash (it is spec
        # state), but flipping it must not leak into any serving result —
        # that is what makes traced reruns trustworthy stand-ins.
        off, on = OPEN_SPEC, _with_telemetry(OPEN_SPEC)
        assert off.spec_hash() != on.spec_hash()
        _assert_identical(Session(off).run(), Session(on).run())

    def test_warmup_is_not_traced_and_not_sampled(self):
        result = Session(_with_telemetry(OPEN_SPEC)).run()
        sim_events = [
            e
            for e in result.trace["traceEvents"]
            if e["ph"] in ("X", "i") and e["pid"] == 0
        ]
        assert sim_events, "expected simulated-clock spans"
        # Warmup runs at simulated time 0 *before* measurement restarts the
        # clock; its spans are paused out, so serve spans exist for exactly
        # the measured queries.
        serve_spans = [e for e in sim_events if e["name"] == "serve"]
        assert len(serve_spans) == result.num_queries

        # Backend spans (chain walk, storage IO, SDM fetch/dequantise) cover
        # the measured queries only, whether or not the counters are reset
        # after warmup: one warm-up implementation pauses the recorder.
        spec = CLOSED_SPEC.replace("workload.num_queries", 30).replace(
            "telemetry", TelemetrySpec(trace=True)
        )
        backend_spans = {}
        for reset in (False, True):
            session = Session(spec.replace("serving.reset_stats_after_warmup", reset))
            trace = session.run().trace
            backend_spans[reset] = Counter(
                e["name"].split(":")[0]
                for e in trace["traceEvents"]
                if e["ph"] == "X" and e.get("cat") in ("chain", "storage", "sdm")
            )
        # After the reset the counters describe the measured window alone,
        # and every SM table request the pooled cache missed is one fetch.
        stats = session.backend.stats
        fetches = stats.sm_table_requests - stats.pooled_cache_hits
        assert backend_spans[True]["fetch"] == fetches > 0
        assert backend_spans[True]["walk"] == fetches
        assert backend_spans[True]["io"] > 0 and backend_spans[True]["dequantise"] > 0
        assert backend_spans[False] == backend_spans[True]
