"""Software Defined Memory (SDM) -- the paper's primary contribution.

Ties the substrates together: embedding tables whose bandwidth demand is low
(user tables) are placed on simulated Storage Class Memory devices, a
software-managed row cache in fast memory captures the hot rows, a pooled
embedding cache short-circuits repeated full index sequences, and placement /
de-pruning / de-quantisation policies trade cheap SM capacity for FM space
and CPU work.  :class:`~repro.core.sdm.SoftwareDefinedMemory` implements the
:class:`~repro.dlrm.inference.EmbeddingBackend` interface, so any
:class:`~repro.dlrm.inference.InferenceEngine` can serve a model through it.
"""

from repro.core.config import DEFAULT_TIERS, AccessPathKind, SDMConfig
from repro.core.bandwidth import (
    BandwidthRequirement,
    bytes_per_query,
    bandwidth_requirement,
    iops_requirement,
    sm_time_budget,
    table_bandwidth_summary,
)
from repro.core.pooled_cache import (
    PooledEmbeddingCache,
    PooledCacheStats,
    order_invariant_hash,
    order_invariant_hash_batch,
    profile_subsequence_schemes,
)
from repro.core.dequantization import DequantizedTable, dequantize_table
from repro.core.warmup import warmup_capacity_overhead
from repro.core.model_update import ModelUpdatePlanner, UpdateStrategy
from repro.core.sdm import SDMStats, SoftwareDefinedMemory

__all__ = [
    "SDMConfig",
    "DEFAULT_TIERS",
    "AccessPathKind",
    "BandwidthRequirement",
    "bytes_per_query",
    "bandwidth_requirement",
    "iops_requirement",
    "sm_time_budget",
    "table_bandwidth_summary",
    "PooledEmbeddingCache",
    "PooledCacheStats",
    "order_invariant_hash",
    "order_invariant_hash_batch",
    "profile_subsequence_schemes",
    "DequantizedTable",
    "dequantize_table",
    "warmup_capacity_overhead",
    "ModelUpdatePlanner",
    "UpdateStrategy",
    "SoftwareDefinedMemory",
    "SDMStats",
]
