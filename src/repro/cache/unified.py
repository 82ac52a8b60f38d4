"""Unified row cache: the dual-cache organisation of section 4.3.

The paper's row cache is CacheLib in two organisations behind one front
door, which routes each embedding row by its length: rows of
:data:`SMALL_ROW_THRESHOLD_BYTES` or less go to the memory-optimised cache
(metadata overhead dominates for small values), larger rows go to the
CPU-optimised cache.  The memory-optimised cache holds
:data:`MEMORY_OPTIMIZED_FRACTION` of the byte budget, since the majority of
tables (and hence cached rows) are small.

Both are :class:`~repro.cache.soa.SoALRUCache` instances keyed by one int
per stored row (:meth:`~repro.hierarchy.chain.TierChain.row_keys`), so like
CacheLib they know nothing about embedding tables; the two organisations
differ only in their parameters (:data:`MEMORY_OPTIMIZED`,
:data:`CPU_OPTIMIZED`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import CacheKey, CacheStats
from repro.cache.soa import ResolvedBatch, SoALRUCache

#: Rows at or below this size are routed to the memory-optimised cache.
SMALL_ROW_THRESHOLD_BYTES = 255

#: Share of the byte budget held by the memory-optimised cache.
MEMORY_OPTIMIZED_FRACTION = 0.8

#: Average entries scanned per bucket lookup in the memory-optimised
#: organisation; drives its higher CPU cost.
AVERAGE_BUCKET_SCAN = 4


@dataclass(frozen=True)
class CacheOrganization:
    """One CacheLib tuning: metadata bytes per entry, CPU per operation."""

    per_item_overhead_bytes: int
    lookup_cpu_seconds: float
    insert_cpu_seconds: float

    def build(self, capacity_bytes: int) -> SoALRUCache:
        """An LRU cache of ``capacity_bytes`` with this organisation's costs."""
        return SoALRUCache(
            capacity_bytes,
            per_item_overhead_bytes=self.per_item_overhead_bytes,
            lookup_cpu_seconds=self.lookup_cpu_seconds,
            insert_cpu_seconds=self.insert_cpu_seconds,
        )


#: Memory-optimised organisation.  Entries carry very little metadata
#: (compact buckets), at the cost of searching within a bucket on every
#: lookup, i.e. more CPU per operation.  The majority of embedding tables
#: have rows smaller than 256 B, so this organisation stores many more rows
#: per GB of FM -- which is why small rows are routed here (Figure 6).
MEMORY_OPTIMIZED = CacheOrganization(
    per_item_overhead_bytes=12,
    lookup_cpu_seconds=1.5e-7 + AVERAGE_BUCKET_SCAN * 0.8e-7,
    insert_cpu_seconds=5.0e-7,
)

#: CPU-optimised organisation.  Each entry carries a full hash-table slot
#: and LRU linkage (higher per-item memory overhead) but a lookup is a
#: single pointer chase.  Rows larger than 255 B are routed here, where the
#: relative metadata overhead is small and CPU efficiency matters more
#: (Figure 6).
CPU_OPTIMIZED = CacheOrganization(
    per_item_overhead_bytes=56,
    lookup_cpu_seconds=1.2e-7,
    insert_cpu_seconds=3.0e-7,
)


class UnifiedRowCache:
    """Two LRU row caches, one per organisation, routed by row length.

    The batch methods are what the tier chain calls; the scalar
    :meth:`get` / :meth:`put` are the per-row reference they must agree
    with.
    """

    #: The state lives in the internal caches.
    STATE_ROLES: ClassVar[Mapping[str, str]] = {}

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        memory_budget = int(capacity_bytes * MEMORY_OPTIMIZED_FRACTION)
        self._memory_cache = MEMORY_OPTIMIZED.build(max(memory_budget, 1))
        self._cpu_cache = CPU_OPTIMIZED.build(max(capacity_bytes - memory_budget, 1))

    def _cache_for(self, row_len: int) -> SoALRUCache:
        """The internal cache rows ``row_len`` bytes long are routed to."""
        if row_len <= SMALL_ROW_THRESHOLD_BYTES:
            return self._memory_cache
        return self._cpu_cache

    # ------------------------------------------------------------ scalar API
    def get(self, key: CacheKey, row_len: int) -> Optional[int]:
        """Look up the row keyed ``key``, ``row_len`` bytes long; its size
        on a hit."""
        return self._cache_for(row_len).get(key)

    def put(self, key: CacheKey, size: int) -> bool:
        """Enter a row of ``size`` bytes into the internal cache its size
        routes it to."""
        return self._cache_for(size).put(key, size)

    # ------------------------------------------------------------- batch API
    def lookup_batch(self, row_len: int, keys: np.ndarray) -> np.ndarray:
        """Resolve the rows keyed ``keys``, ``row_len`` bytes long: each
        row's slot in the internal cache such rows route to, ``-1`` when
        absent.  Non-mutating.

        The resolution stays valid while no row is inserted or removed, so
        the probes of a run (:meth:`probe_run`) and a promotion certificate
        (:meth:`promotion_hazard`) consume it instead of looking the rows up
        again.
        """
        return self._cache_for(row_len).lookup_slots(keys)

    def probe_run(self, batches: Sequence[ResolvedBatch]) -> List[np.ndarray]:
        """Probe a run of resolved batches, one after another: the same as
        :meth:`get` row by row, batch by batch.

        Each batch is ``(keys, slots, row_len)`` with ``slots`` from
        :meth:`lookup_batch`.  Returns each batch's boolean hit mask.  Each
        internal cache is probed once for its share of the run
        (:meth:`SoALRUCache.probe_run`).
        """
        small = [row_len <= SMALL_ROW_THRESHOLD_BYTES for _, _, row_len in batches]
        if len(set(small)) == 1:
            return self._cache_for(batches[0][2]).probe_run(batches)
        masks: List[np.ndarray] = [np.empty(0, dtype=bool)] * len(batches)
        for cache, routed in ((self._memory_cache, True), (self._cpu_cache, False)):
            members = [position for position, is_small in enumerate(small) if is_small == routed]
            for position, mask in zip(members, cache.probe_run([batches[at] for at in members])):
                masks[position] = mask
        return masks

    def probe_and_promote(
        self, keys: np.ndarray, slots: np.ndarray, row_len: int, promote_mask: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """:meth:`probe_run` of one batch resolved by :meth:`lookup_batch`,
        with a promotion fill right after the probe of each row marked in
        ``promote_mask``; returns ``(hit_mask, admitted)``.  The caller has
        cleared the batch through :meth:`promotion_hazard`."""
        return self._cache_for(row_len).probe_and_promote(keys, slots, row_len, promote_mask)

    def promotion_hazard(self, slots: np.ndarray, num_fills: int, row_len: int) -> bool:
        """Whether ``num_fills`` promotion fills interleaved with a batched
        probe of rows resolved to ``slots`` (:meth:`lookup_batch`) could
        change what a later probe of the same batch finds.  Non-mutating.

        ``True`` when the fills would evict a row the same batch hits (see
        :meth:`SoALRUCache.promotion_hazard`).  The caller then probes a
        shorter run of rows; one row is always exact.
        """
        return self._cache_for(row_len).promotion_hazard(slots, num_fills, row_len)

    def fill_batch(self, row_len: int, keys: np.ndarray) -> int:
        """Batched :meth:`put`, one ``row_len``-byte row per key; returns
        the number of rows admitted."""
        return self._cache_for(row_len).fill_batch(row_len, keys)

    # ----------------------------------------------------------------- stats
    @property
    def stats(self) -> CacheStats:
        return CacheStats().merge(self._memory_cache.stats).merge(self._cpu_cache.stats)

    @property
    def used_bytes(self) -> int:
        return self._memory_cache.used_bytes + self._cpu_cache.used_bytes

    @property
    def item_count(self) -> int:
        return self._memory_cache.item_count + self._cpu_cache.item_count
