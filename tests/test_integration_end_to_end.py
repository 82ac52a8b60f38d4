"""End-to-end integration tests across the whole stack.

These exercise the full pipeline the paper deploys: a DLRM served through the
SDM backend on simulated SSDs, driven by a synthetic query stream, measured
by the host-level serving simulator, and compared against DRAM-only serving.
"""

import numpy as np

from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.dlrm import (
    ComputeSpec,
    InMemoryBackend,
    InferenceEngine,
    M1_SPEC,
    build_scaled_model,
)
from repro.serving import ServingEngine
from repro.sim.state import CONTENTS, COUNTER, reset
from repro.sim.units import MIB
from repro.storage import IOEngineConfig, Technology
from repro.storage.spec import TABLE1_SPECS
from repro.workload import QueryGenerator, WorkloadConfig

from helpers import small_model, small_queries, small_sdm


def _host(technology):
    """The paper's host geometry on two devices of ``technology``."""
    return [
        {"technology": "dram", "capacity": 0},
        {
            "technology": technology,
            "capacity": 2 * TABLE1_SPECS[technology].capacity_bytes,
            "devices": 2,
        },
    ]


def _m1_scaled(item_batch=4, seed=0):
    return build_scaled_model(
        M1_SPEC,
        max_tables_per_group=4,
        max_rows_per_table=512,
        item_batch=item_batch,
        seed=seed,
    )


class TestSDMvsDRAMServing:
    def test_scores_identical_between_sdm_and_dram(self):
        """The ranking scores must not depend on where embeddings live."""
        model = _m1_scaled()
        compute = ComputeSpec()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=4, num_users=100), seed=1).generate(10)

        dram_engine = InferenceEngine(
            model, compute, InMemoryBackend(model.tables, compute)
        )
        sdm = SoftwareDefinedMemory(
            model, SDMConfig(row_cache_capacity_bytes=1 * MIB, pooled_cache_capacity_bytes=1 * MIB)
        )
        sdm_engine = InferenceEngine(model, compute, sdm)

        for query in queries:
            dram_scores = dram_engine.run_query(query).scores
            sdm_scores = sdm_engine.run_query(query).scores
            np.testing.assert_allclose(sdm_scores, dram_scores, rtol=1e-4, atol=1e-5)

    def test_sm_latency_hidden_when_item_side_dominates(self):
        """Equation 3: with a large item batch the user-side SM fetch is not
        on the critical path, so SDM latency approaches DRAM latency."""
        model = _m1_scaled(item_batch=16)
        compute = ComputeSpec()
        queries = QueryGenerator(
            model, WorkloadConfig(item_batch=16, num_users=50), seed=2
        ).generate(100)

        dram_engine = InferenceEngine(model, compute, InMemoryBackend(model.tables, compute))
        sdm = SoftwareDefinedMemory(
            model,
            SDMConfig(tiers=_host(Technology.OPTANE_SSD), row_cache_capacity_bytes=2 * MIB),
        )
        sdm_engine = InferenceEngine(model, compute, sdm)

        dram_latency = np.mean([dram_engine.run_query(q).latency for q in queries[60:]])
        # Warm the SDM caches to steady state: with 50 users at 0.8 reuse the
        # row cache needs most users' sequences seen before hit rates settle.
        for query in queries[:60]:
            sdm_engine.run_query(query)
        sdm_latency = np.mean([sdm_engine.run_query(q).latency for q in queries[60:]])
        assert sdm_latency <= dram_latency * 1.5

    def test_hit_rate_reaches_steady_state_with_repeated_users(self):
        """Section 5.1 reports >96% steady-state hit rate; the scaled setup
        must at least show a high hit rate once warmed."""
        model = small_model(num_rows=512)
        sdm = small_sdm(model, row_cache_capacity_bytes=4 * MIB, pooled_cache_enabled=False)
        generator = QueryGenerator(
            model,
            WorkloadConfig(item_batch=2, num_users=30, user_reuse_probability=0.9),
            seed=0,
        )
        queries = generator.generate(300)
        for query in queries:
            sdm.serve(query.user_indices, 0.0)
        assert sdm.row_cache_hit_rate > 0.8


class TestServingSimulatorIntegration:
    def test_optane_sustains_higher_qps_than_nand(self):
        """The Figure-3 / section-5.2 differentiation must show up end to end:
        the same model served on Optane achieves no worse throughput than on
        Nand Flash."""

        def run(technology):
            model = _m1_scaled(item_batch=2, seed=3)
            sdm = SoftwareDefinedMemory(
                model,
                SDMConfig(
                    tiers=_host(technology),
                    row_cache_capacity_bytes=256 * 1024,
                    pooled_cache_enabled=False,
                    io=IOEngineConfig(max_outstanding_per_device=16),
                ),
            )
            engine = InferenceEngine(model, ComputeSpec(), sdm)
            queries = QueryGenerator(
                model, WorkloadConfig(item_batch=2, num_users=500, user_reuse_probability=0.2), seed=4
            ).generate(60)
            result = ServingEngine(engine).run_closed_loop(queries, warmup_queries=10)
            return result.achieved_qps

        assert run(Technology.OPTANE_SSD) >= run(Technology.NAND_FLASH)

    def test_full_pipeline_reports_consistent_metrics(self):
        model = _m1_scaled(item_batch=2)
        sdm = SoftwareDefinedMemory(model, SDMConfig(row_cache_capacity_bytes=1 * MIB))
        engine = InferenceEngine(model, ComputeSpec(), sdm)
        queries = QueryGenerator(model, WorkloadConfig(item_batch=2), seed=0).generate(40)
        result = ServingEngine(engine, concurrency=2).run_closed_loop(queries, warmup_queries=5)

        assert result.num_queries == 35
        assert result.achieved_qps > 0
        assert sdm.stats.queries == 40
        assert sdm.stats.sm_row_lookups > 0
        submitted = sum(tier.io_engine.stats.ios_submitted for tier in sdm.device_tiers)
        assert submitted == sdm.stats.sm_ios
        assert sdm.device_stats().reads == sdm.stats.sm_ios


class TestColdVsWarmCache:
    def test_clearing_caches_degrades_then_recovers(self):
        model = small_model()
        sdm = small_sdm(model)
        queries = small_queries(model, 60)
        for query in queries[:30]:
            sdm.serve(query.user_indices, 0.0)
        warm_rate = sdm.row_cache_hit_rate
        assert warm_rate > 0

        reset(sdm, {CONTENTS, COUNTER})
        for query in queries[:5]:
            sdm.serve(query.user_indices, 0.0)
        cold_rate = sdm.row_cache_hit_rate
        assert cold_rate <= warm_rate
