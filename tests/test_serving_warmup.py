"""The warm-up contract: caches carry over the boundary, clocks do not.

``ServingEngine.warm_up`` serves the prefix at simulated t=0 and the measured
window starts at t=0 too, so anything the prefix stamped with its own clock —
outstanding IOs, busy device channels, in-flight page faults — must be gone
when measurement starts, or the first measured queries wait behind a backlog
that no steady-state host would have.
"""

import numpy as np
import pytest

from repro.api import BackendChoice, ModelChoice, ScenarioSpec, Session, WorkloadChoice
from repro.core import AccessPathKind
from repro.serving import ServingEngine
from repro.workload.generator import generate_arrival_times

from helpers import POOLED_SDM_OPTIONS, small_model, small_sdm

WARMUP = 8


def _spec(backend: str, **options) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"warmup-{backend}",
        model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
        backend=BackendChoice(name=backend, options=options),
        workload=WorkloadChoice(num_queries=24, num_users=40),
    )


SPECS = {
    "sdm": _spec("sdm", row_cache_capacity_bytes=16 * 1024),
    "pooled": _spec("sdm", **POOLED_SDM_OPTIONS),
    "tiered": _spec("tiered", tiers="dram:4KiB,cxl:32KiB:8KiB,nand:1GiB"),
    "dram": _spec("dram"),
}


def _run(serving: ServingEngine, mode: str, queries, warmup_queries: int):
    if mode == "closed":
        return serving.run_closed_loop(queries, warmup_queries=warmup_queries)
    arrivals = generate_arrival_times(
        len(queries) - warmup_queries, process="poisson", offered_qps=4000.0, seed=1
    )
    return serving.run_open_loop(
        queries, arrivals, queue_depth=4, warmup_queries=warmup_queries
    )


def _observed(session: Session, result):
    tiers = getattr(session.backend, "tier_summaries", list)()
    scores = [r.scores for r in result.results]
    return result.latencies, result.makespan_seconds, tiers, scores


class TestWarmupEqualsHandWarming:
    @pytest.mark.parametrize("mode", ["closed", "open"])
    @pytest.mark.parametrize("backend", sorted(SPECS))
    def test_warmup_queries_is_serve_then_reset_queues(self, backend, mode):
        warmed = Session(SPECS[backend])
        result = _run(ServingEngine(warmed.engine, 2), mode, warmed.queries(), WARMUP)

        by_hand = Session(SPECS[backend])
        queries = by_hand.queries()
        for query in queries[:WARMUP]:
            by_hand.engine.run_query(query, start_time=0.0)
        by_hand.backend.reset_queues()
        expected = _run(ServingEngine(by_hand.engine, 2), mode, queries[WARMUP:], 0)

        latencies, makespan, tiers, scores = _observed(warmed, result)
        ref_latencies, ref_makespan, ref_tiers, ref_scores = _observed(by_hand, expected)
        assert latencies == ref_latencies
        assert makespan == ref_makespan
        assert tiers == ref_tiers
        assert len(scores) == len(ref_scores) == len(queries) - WARMUP
        for produced, reference in zip(scores, ref_scores):
            np.testing.assert_array_equal(produced, reference)


class TestWarmingNeverSlowsTheHost:
    @pytest.mark.parametrize("num_queries,warmup", [(200, 40), (120, 60)])
    def test_warmed_tail_is_at_least_as_fast_as_the_same_tail_cold(
        self, num_queries, warmup
    ):
        """Metamorphic: the warm-up changes what is cached, nothing else, so
        with a cache that holds the working set it can only help."""
        spec = (
            ScenarioSpec()
            .replace("workload.num_queries", num_queries)
            .replace("backend.options.row_cache_capacity_bytes", 64 * 1024 * 1024)
        )
        warmed = Session(spec.replace("serving.warmup_queries", warmup)).run()

        cold = Session(spec)
        tail = cold.queries()[warmup:]
        cold_result = ServingEngine(cold.engine, spec.serving.concurrency).run_closed_loop(tail)

        assert warmed.num_queries == cold_result.num_queries == len(tail)
        assert warmed.achieved_qps >= cold_result.achieved_qps
        assert warmed.host_result.latencies[0] < cold_result.latencies[0]


class TestMmapFaultsLandAtTheBoundary:
    def test_a_page_faulted_in_warmup_does_not_stall_a_measured_read(self):
        model = small_model()
        sdm = small_sdm(model, access_path=AccessPathKind.MMAP)
        (tier,) = sdm.device_tiers
        reader = tier.access_path
        table = tier.layout.tables()[0]
        rows = np.arange(4, dtype=np.int64)

        faulted = reader.read_rows_batch(table, rows, 0.0)
        assert reader.page_faults > 0 and faulted.min() > 0.0
        pages, faults = reader.fm_footprint_bytes(), reader.page_faults

        sdm.reset_queues()

        # Still mapped (no new fault, same footprint), and served the moment
        # it is asked for instead of at the warm-up clock's completion time.
        landed = reader.read_rows_batch(table, rows, 0.0)
        assert reader.page_faults == faults and reader.fm_footprint_bytes() == pages
        assert landed.tolist() == [0.0] * rows.size
