"""Figure 6: cache organisation and placement trade-offs.

Two parts:
 * memory-optimised vs CPU-optimised vs unified dual cache -- entries held in
   a fixed FM budget and CPU cost per million lookups;
 * direct-DRAM placement budget sweep for an inferenceEval-style workload
   (user batch == item batch), showing QPS improving as more of the hottest
   tables are pinned in DRAM.  The sweep is a one-axis campaign
   (:func:`repro.run_campaign`) over tier 0's capacity in the SDM backend's
   default tier list (``tiers.0.capacity``).
"""

from repro import CampaignSpec, ScenarioSpec, Session, format_table, run_campaign
from repro.api import BackendChoice, ModelChoice, ServingChoice, WorkloadChoice
import numpy as np

from repro.cache import CPU_OPTIMIZED, MEMORY_OPTIMIZED, UnifiedRowCache
from repro.core import DEFAULT_TIERS
from repro.sim.units import MIB

from _util import emit, run_once


def _cache_organisation_rows():
    budget = 1 * MIB
    small_row, large_row = 64, 320  # row sizes in bytes
    probed = np.arange(5_000)
    rows = []
    for name, cache in (
        ("memory-optimised", MEMORY_OPTIMIZED.build(budget)),
        ("cpu-optimised", CPU_OPTIMIZED.build(budget)),
        ("unified dual cache", UnifiedRowCache(budget)),
    ):
        # Two tables' rows, each table its own key range.
        cache.fill_batch(small_row, np.arange(16_000))
        cache.fill_batch(large_row, 16_000 + np.arange(1_000))
        slots = (
            cache.lookup_batch(small_row, probed)
            if isinstance(cache, UnifiedRowCache)
            else cache.lookup_slots(probed)
        )
        cache.probe_run([(probed, slots, small_row)])
        stats = cache.stats
        rows.append([name, cache.item_count, stats.cpu_seconds * 1e6])
    return rows


def _placement_sweep_rows():
    spec = ScenarioSpec(
        name="fig6-placement-sweep",
        model=ModelChoice(spec="M2", max_tables_per_group=4, max_rows_per_table=1024,
                          item_batch=4, seed=1),
        backend=BackendChoice(
            name="sdm",
            options=dict(
                tiers=[tier.to_dict() for tier in DEFAULT_TIERS],
                row_cache_capacity_bytes=256 * 1024,
                pooled_cache_enabled=False,
            ),
        ),
        # inferenceEval: user batch == item batch (> 1), more placement
        # sensitive than inference per the paper.
        workload=WorkloadChoice(num_queries=60, item_batch=4, num_users=300, seed=2),
        serving=ServingChoice(concurrency=1, warmup_queries=10),
    )
    model = Session(spec).model
    user_bytes = sum(t.size_bytes for t in model.tables.values() if t.spec.is_user)
    budgets = [int(user_bytes * fraction) for fraction in (0.0, 0.25, 0.5)]
    outcomes = run_campaign(
        CampaignSpec.from_grid(spec, {"tiers.0.capacity": budgets})
    )
    labels = ("0% DRAM budget", "25%", "50%")
    return [
        [label, outcome.result.achieved_qps, outcome.result.latency["mean"] * 1e6]
        for label, outcome in zip(labels, outcomes)
    ]


def build_figure6():
    return {
        "organisation": _cache_organisation_rows(),
        "placement": _placement_sweep_rows(),
    }


def bench_fig6_cache_organization(benchmark):
    data = run_once(benchmark, build_figure6)
    emit(
        "Figure 6 (top): cache organisation comparison (2 MiB FM budget)",
        format_table(
            ["organisation", "entries held", "CPU cost of 5k lookups (us)"],
            data["organisation"],
            float_fmt=".1f",
        ),
    )
    emit(
        "Figure 6 (bottom): direct DRAM placement budget vs QPS (inferenceEval)",
        format_table(
            ["DRAM budget", "achieved QPS", "mean latency (us)"],
            data["placement"],
            float_fmt=".1f",
        ),
    )
    organisation = {row[0]: row for row in data["organisation"]}
    # Memory-optimised holds more small rows; CPU-optimised burns less CPU.
    assert organisation["memory-optimised"][1] > organisation["cpu-optimised"][1]
    assert organisation["cpu-optimised"][2] < organisation["memory-optimised"][2]
    # The unified cache sits between the two extremes on capacity.
    assert organisation["unified dual cache"][1] >= organisation["cpu-optimised"][1]
    # More DRAM budget never hurts QPS.
    placement_qps = [row[1] for row in data["placement"]]
    assert placement_qps[-1] >= placement_qps[0] * 0.95
