"""The workload catalogue.  Names are permanent: later issues cite them.

Every workload is a plain ``ScenarioSpec`` dict (plus, for ``campaign-grid``,
the grid crossed over it).  ``--seed`` reaches the program only through
``workload.seed`` and ``traffic.seed``; the program sees nothing but the
inputs generated from them.  ``smoke`` shrinks every size by roughly 25x so
the whole catalogue runs in seconds; smoke numbers are for plumbing tests
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

KIB = 1 << 10
MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"serve"`` drives one ``ServingEngine.run_*`` call per pass,
    #: ``"campaign"`` one ``run_campaign`` call per pass.
    kind: str
    #: How a pass starts: ``"pristine"`` = ``restore_pristine()`` (modelled
    #: caches start empty), ``"warm"`` = one untimed replay filled the cache,
    #: then counters and queues are reset before every timed replay.
    start: str
    spec: Dict[str, Any]
    smoke_spec: Dict[str, Any]
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    smoke_grid: Dict[str, List[Any]] = field(default_factory=dict)
    #: Seed replicates of every grid cell (``CampaignSpec(replicates=...)``).
    replicates: int = 1
    #: Bypass predictions that hold at the baseline commit:
    #: ``(per-layer metric, relation, value)``.  Reported, never enforced —
    #: a later change may legitimately move them.
    expect: Tuple[Tuple[str, str, float], ...] = ()


def _spec(
    backend: str,
    options: Dict[str, Any],
    queries: int,
    rows: int,
    *,
    item_batch: int = 4,
    concurrency: int = 4,
    tables: int = 8,
    traffic: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    return {
        "model": {
            "spec": "M1",
            "max_tables_per_group": tables,
            "max_rows_per_table": rows,
            "item_batch": item_batch,
        },
        "backend": {"name": backend, "options": options},
        "workload": {"num_queries": queries, "num_users": 2000},
        "traffic": traffic if traffic is not None else {"mode": "closed"},
        # warmup_queries stays 0: its t=0 warm-up leaves device queues busy.
        "serving": {"concurrency": concurrency, "warmup_queries": 0, "store_results": False},
    }


def _sized(backend: str, options: Dict[str, Any], full: Tuple[int, int], smoke: Tuple[int, int], **shape):
    """``spec``/``smoke_spec`` from ``(queries, max_rows_per_table)`` pairs."""
    return {
        "spec": _spec(backend, options, *full, **shape),
        "smoke_spec": _spec(backend, options, *smoke, **shape),
    }


_OPEN = {"mode": "open", "arrival": "poisson", "queue_depth": 32, "serve_batch": 4, "offered_qps": 8000}
# Constant-rate arrivals: with 32 queries a point, Poisson gaps alone move the
# sweep's simulated figures by more than any modelled effect.
_GRID_TRAFFIC = {"mode": "open", "arrival": "constant", "queue_depth": 16, "offered_qps": 1000}
_CACHE = "backend.options.row_cache_capacity_bytes"

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="warm-closed",
            why="Row cache holds all SM data: probe, chain walk, dequantise/pool and dense "
            "compute do the work; storage does none, so a storage change predicts no movement.",
            kind="serve",
            start="warm",
            expect=(("storage.ios", "==", 0), ("cache.hit_rate", "==", 1), ("sim.events", "==", 0)),
            **_sized(
                "sdm",
                {"row_cache_capacity_bytes": 64 * MIB, "pooled_cache_enabled": False},
                (1000, 16384),
                (40, 2048),
            ),
        ),
        Workload(
            name="cold-closed",
            why="64 KiB row cache, hit rate ~0: IO gating, device scheduling, block gather and "
            "cache insert/evict churn dominate; a probe win that taxes fills shows here.",
            kind="serve",
            start="pristine",
            expect=(("cache.hit_rate", "<", 0.01), ("sim.events", "==", 0)),
            **_sized(
                "sdm",
                {"row_cache_capacity_bytes": 64 * KIB, "pooled_cache_enabled": False},
                (1000, 16384),
                (40, 2048),
            ),
        ),
        Workload(
            name="tiered-open",
            why="Only workload with a 3-tier walk, promotion, pooled cache, the event heap, the "
            "admission queue and shedding; open loop just above capacity; shows batch fallbacks.",
            kind="serve",
            start="pristine",
            expect=(("hierarchy.fallback_share", ">", 0.5), ("sim.events", ">", 0)),
            **_sized(
                "tiered",
                {
                    "tiers": "dram:256KiB:512KiB,cxl:2MiB:4MiB,nand:1GiB",
                    "split_rows": True,
                    "promotion": "all",
                    "pooled_cache_enabled": True,
                },
                (1200, 16384),
                (48, 2048),
                traffic=_OPEN,
            ),
        ),
        Workload(
            name="dram-dense",
            why="DRAM backend, 16 items per query: bypasses core/hierarchy/cache/storage, isolating "
            "dlrm + serving + workload; the paper's DRAM-only baseline host.",
            kind="serve",
            start="pristine",
            expect=(
                ("core.table_requests", "==", 0),
                ("hierarchy.batches", "==", 0),
                ("cache.probe_rows", "==", 0),
                ("storage.ios", "==", 0),
                ("sim.events", "==", 0),
            ),
            **_sized("dram", {}, (1000, 16384), (40, 2048), item_batch=16),
        ),
        Workload(
            name="campaign-grid",
            why="48 short cold starts (6 rates x 4 cache sizes x 2 seed replicates), serial, backends "
            "reused: spec round-trip, query regeneration, restore, builds, store appends; "
            "the rate sweep gives the SLO knee.",
            kind="campaign",
            start="pristine",
            expect=(("runtime.reuse_hit_rate", "==", 44 / 48), ("runtime.failed_points", "==", 0)),
            grid={
                "traffic.offered_qps": [1000 * step for step in range(1, 7)],
                _CACHE: [256 * KIB, MIB, 4 * MIB, 16 * MIB],
            },
            smoke_grid={"traffic.offered_qps": [1000, 4000], _CACHE: [256 * KIB, 4 * MIB]},
            # All cells of one replicate replay the same 32-query stream, so a
            # single replicate makes the sweep's simulated figures hostage to
            # that stream; two halve that at no extra host cost per point.
            replicates=2,
            **_sized(
                "sdm",
                {"row_cache_capacity_bytes": MIB},
                (32, 8192),
                (8, 2048),
                concurrency=2,
                tables=6,
                traffic=_GRID_TRAFFIC,
            ),
        ),
    )
}


def scenario_dict(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """The workload's spec with ``seed`` in the only two places it may go."""
    base = workload.smoke_spec if smoke else workload.spec
    spec = {section: dict(values) for section, values in base.items()}
    spec["name"] = workload.name
    spec["workload"]["seed"] = seed
    spec["traffic"]["seed"] = seed
    return spec
