"""N-tier memory hierarchy: pluggable tiers, tiered placement, tier chain.

An ordered list of first-class memory tiers (DRAM, CXL/DIMM 3DXP, Optane,
ZSSD, NAND — the Table 1 spectrum); the paper's FM/SM host is the two-tier
list.  The pieces:

* :class:`TierSpec` / :func:`parse_tiers` — declarative tier geometry, also
  parseable from ``"dram:4GiB,cxl:32GiB,nand:1TiB"`` strings.
* :class:`MemoryTier` (:class:`FastTier`, :class:`DeviceTier`) — runtime
  tiers with capacity/latency models, per-tier row caches and
  :class:`TierStats`.
* :class:`TieredPlacement` / :func:`compute_tiered_placement` — the one
  placement algorithm: assigns tables (or hotness-ranked row ranges) across
  the hierarchy by bandwidth density; the Table 5 policies are tier budgets.
* :class:`TierChain` — serves lookups through the chain: probe tier ``k``,
  miss to ``k+1``, promote on a configurable policy.

:class:`~repro.core.sdm.SoftwareDefinedMemory` builds on these.
"""

from repro.hierarchy.chain import BatchFetchOutcome, TierChain
from repro.hierarchy.cost import cost_factor, memory_cost_dram_gb, pareto_frontier
from repro.hierarchy.placement import (
    TieredPlacement,
    TieredTablePlacement,
    TierSegment,
    compute_tiered_placement,
    hotness_ranking,
)
from repro.hierarchy.tier import (
    PROMOTION_POLICIES,
    TECHNOLOGY_ALIASES,
    DeviceTier,
    FastTier,
    MemoryTier,
    TierSpec,
    TierStats,
    build_tiers,
    parse_technology,
    parse_tiers,
)

__all__ = [
    "BatchFetchOutcome",
    "DeviceTier",
    "FastTier",
    "MemoryTier",
    "PROMOTION_POLICIES",
    "TECHNOLOGY_ALIASES",
    "TierChain",
    "TierSegment",
    "TierSpec",
    "TierStats",
    "TieredPlacement",
    "TieredTablePlacement",
    "build_tiers",
    "compute_tiered_placement",
    "cost_factor",
    "hotness_ranking",
    "memory_cost_dram_gb",
    "pareto_frontier",
    "parse_technology",
    "parse_tiers",
]
