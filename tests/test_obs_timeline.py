"""Unit tests of the MetricsSampler window machinery, plus the end-to-end
property the tentpole pins: timeline window deltas sum to the aggregate
serving statistics."""

import pytest

from repro.api import ScenarioSpec, Session, TelemetrySpec
from repro.api.spec import ServingChoice, TrafficSpec, WorkloadChoice
from repro.hierarchy.tier import TierStats
from repro.obs.metrics import (
    MetricsSampler,
    Timeline,
    stats_counters,
    window_rate,
    window_ratio,
)


class TestMetricsSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            MetricsSampler(0.0)

    def test_windows_hold_deltas_not_levels(self):
        counters = {"served": 0}
        sampler = MetricsSampler(1.0)
        sampler.add_counters("engine", lambda: dict(counters))
        sampler.start(0.0)
        counters["served"] = 3
        sampler.advance(1.0)  # closes window 0 with delta 3
        counters["served"] = 10
        sampler.finish(2.0)
        assert [w.counters["engine.served"] for w in sampler.timeline.windows] == [3, 7]

    def test_boundary_event_belongs_to_the_next_window(self):
        # advance(t) closes every window ending at or before t; window k is
        # [k*interval, (k+1)*interval), so t == boundary starts window k+1.
        sampler = MetricsSampler(1.0)
        sampler.add_counters("c", lambda: {"n": 0})
        sampler.start(0.0)
        sampler.advance(1.0)
        assert [w.index for w in sampler.timeline.windows] == [0]
        assert sampler.timeline.windows[0].end == 1.0

    def test_advance_keeps_a_high_water_mark(self):
        # Closed-loop streams report per-stream clocks out of order.
        sampler = MetricsSampler(1.0)
        sampler.add_counters("c", lambda: {"n": 0})
        sampler.start(0.0)
        sampler.advance(2.5)
        sampler.advance(0.5)  # older timestamp: must not reopen windows
        assert len(sampler.timeline) == 2
        sampler.finish(0.75)  # finish below the high water closes the partial
        assert sampler.timeline.windows[-1].end == 2.5

    def test_finish_closes_partial_window_and_is_idempotent(self):
        sampler = MetricsSampler(1.0)
        sampler.add_counters("c", lambda: {"n": 0})
        sampler.start(0.0)
        timeline = sampler.finish(2.4)
        assert [w.end for w in timeline.windows] == [1.0, 2.0, 2.4]
        assert sampler.finish(99.0) is timeline
        assert len(timeline) == 3

    def test_start_baselines_away_prior_activity(self):
        # Counters accumulated before start() (warmup) never enter window 0.
        counters = {"served": 40}
        sampler = MetricsSampler(1.0)
        sampler.add_counters("engine", lambda: dict(counters))
        sampler.start(0.0)
        counters["served"] = 41
        sampler.finish(0.5)
        assert sampler.timeline.windows[0].counters["engine.served"] == 1

    def test_gauges_sample_at_window_close(self):
        depth = {"value": 0.0}
        sampler = MetricsSampler(1.0)
        sampler.add_counters("c", lambda: {"n": 0})
        sampler.add_gauge("queue_depth", lambda: depth["value"])
        sampler.start(0.0)
        depth["value"] = 4.0
        sampler.advance(1.0)
        depth["value"] = 9.0
        sampler.finish(1.5)
        assert [w.gauges["queue_depth"] for w in sampler.timeline.windows] == [4.0, 9.0]

    def test_sources_are_frozen_after_start(self):
        sampler = MetricsSampler(1.0)
        sampler.start(0.0)
        with pytest.raises(RuntimeError, match="after start"):
            sampler.add_counters("c", dict)
        with pytest.raises(RuntimeError, match="after start"):
            sampler.add_gauge("g", float)

    def test_advance_requires_start(self):
        with pytest.raises(RuntimeError, match="start"):
            MetricsSampler(1.0).advance(1.0)

    def test_totals_telescope(self):
        counters = {"n": 0}
        sampler = MetricsSampler(0.5)
        sampler.add_counters("c", lambda: dict(counters))
        sampler.start(0.0)
        for step in range(1, 8):
            counters["n"] = step * step
            sampler.advance(step * 0.3)
        sampler.finish(2.1)
        assert sampler.timeline.totals()["c.n"] == 49  # final - baseline

    def test_timeline_round_trips_through_dict(self):
        sampler = MetricsSampler(1.0)
        sampler.add_counters("c", lambda: {"n": 1})
        sampler.add_gauge("g", lambda: 2.0)
        sampler.start(0.0)
        timeline = sampler.finish(1.5)
        rebuilt = Timeline.from_dict(timeline.to_dict())
        assert rebuilt.interval == timeline.interval
        assert rebuilt.windows == timeline.windows

    def test_window_rate_and_ratio_helpers(self):
        sampler = MetricsSampler(2.0)
        counters = {"hits": 0, "probes": 0}
        sampler.add_counters("t", lambda: dict(counters))
        sampler.start(0.0)
        counters.update(hits=3, probes=4)
        [window] = sampler.finish(2.0).windows
        assert window_rate(window, "t.probes") == 2.0  # 4 over a 2 s window
        assert window_ratio(window, "t.hits", "t.probes") == 0.75
        assert window_ratio(window, "t.hits", "t.missing") is None

    def test_stats_counters_picks_named_fields(self):
        stats = TierStats(cache_probes=5, cache_hits=2, rows_served=7, bytes_served=700, ios=1)
        # Every field of the stats dataclass, in declaration order.
        assert list(stats_counters(stats).items()) == [
            ("cache_probes", 5),
            ("cache_hits", 2),
            ("rows_served", 7),
            ("bytes_served", 700),
            ("ios", 1),
            ("promoted_rows", 0),
        ]


class TestTimelineMatchesAggregates:
    """The acceptance property: windows sum to the run's aggregate stats."""

    @pytest.fixture(scope="class")
    def session_and_result(self):
        spec = ScenarioSpec(
            name="timeline-aggregate",
            workload=WorkloadChoice(num_queries=80),
            # warmup=0 so the sampler baseline equals the zero'd stats and
            # window totals equal the *aggregate* counters, not a suffix.
            serving=ServingChoice(concurrency=2, warmup_queries=0),
            traffic=TrafficSpec(
                mode="open", arrival="poisson", offered_qps=400.0, queue_depth=16
            ),
            telemetry=TelemetrySpec(sample_interval=0.02),
        )
        session = Session(spec)
        return session, session.run()

    def test_window_deltas_sum_to_tier_stats(self, session_and_result):
        session, result = session_and_result
        totals = Timeline.from_dict(result.timeline).totals()
        backend = session.backend
        for index, tier in enumerate(backend.tiers):
            for field, value in stats_counters(tier.stats).items():
                assert totals.get(f"backend.tier{index}.{field}", 0) == value, (index, field)

    def test_window_deltas_sum_to_cache_stats(self, session_and_result):
        session, result = session_and_result
        totals = Timeline.from_dict(result.timeline).totals()
        for index, tier in enumerate(session.backend.tiers):
            if tier.cache is None:
                continue
            for field, value in stats_counters(tier.cache.stats).items():
                key = f"backend.tier{index}.cache.{field}"
                assert totals.get(key, 0) == value, (index, field)

    def test_window_deltas_sum_to_engine_counts(self, session_and_result):
        _, result = session_and_result
        totals = Timeline.from_dict(result.timeline).totals()
        assert totals["engine.served"] == result.num_queries
        assert totals["engine.dropped"] == result.dropped_queries
        assert totals["engine.offered"] == result.num_queries + result.dropped_queries

    def test_windows_tile_the_makespan(self, session_and_result):
        _, result = session_and_result
        timeline = Timeline.from_dict(result.timeline)
        assert len(timeline) >= 2
        previous_end = 0.0
        for window in timeline.windows:
            assert window.start == previous_end
            assert window.end > window.start
            previous_end = window.end
        assert timeline.windows[-1].end <= result.makespan_seconds + 1e-9
