"""Unified row cache: the dual-cache organisation of section 4.3.

A single front door routes each embedding row to one of two internal caches
based on its size: rows with embedding dimension <= 255 B go to the
memory-optimised cache (metadata overhead dominates for small values), larger
rows go to the CPU-optimised cache.  The unified cache also supports
partitioning (the "number of cache partitions" Tuning API knob) to model
reduced lock contention / sharding.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import CacheKey, CacheStats
from repro.cache.cpu_optimized import CPUOptimizedCache
from repro.cache.memory_optimized import MemoryOptimizedCache
from repro.cache.soa import ResolvedBatch, SoALRUCache

#: Rows at or below this size are routed to the memory-optimised cache.
SMALL_ROW_THRESHOLD_BYTES = 255


@dataclass(frozen=True)
class UnifiedCacheConfig:
    """Sizing and routing parameters for the unified row cache.

    ``memory_optimized_fraction`` splits the byte budget between the two
    internal caches; the default mirrors the paper's observation that the
    majority of tables (and hence cached rows) are small.
    """

    capacity_bytes: int
    memory_optimized_fraction: float = 0.8
    small_row_threshold_bytes: int = SMALL_ROW_THRESHOLD_BYTES
    num_partitions: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive: {self.capacity_bytes}")
        if not 0.0 < self.memory_optimized_fraction < 1.0:
            raise ValueError(
                "memory_optimized_fraction must be in (0, 1): "
                f"{self.memory_optimized_fraction}"
            )
        if self.small_row_threshold_bytes <= 0:
            raise ValueError(
                f"small_row_threshold_bytes must be positive: {self.small_row_threshold_bytes}"
            )
        if self.num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive: {self.num_partitions}")


class UnifiedRowCache:
    """Routes rows to the memory-optimised or CPU-optimised internal cache."""

    #: The state lives in the internal caches.
    STATE_ROLES: ClassVar[Mapping[str, str]] = {}

    def __init__(self, config: UnifiedCacheConfig) -> None:
        self.config = config
        partitions = config.num_partitions
        memory_budget = int(config.capacity_bytes * config.memory_optimized_fraction)
        cpu_budget = config.capacity_bytes - memory_budget
        self._memory_caches: List[MemoryOptimizedCache] = [
            MemoryOptimizedCache(max(memory_budget // partitions, 1)) for _ in range(partitions)
        ]
        self._cpu_caches: List[CPUOptimizedCache] = [
            CPUOptimizedCache(max(cpu_budget // partitions, 1)) for _ in range(partitions)
        ]

    # ------------------------------------------------------------- routing
    def _partition_index(self, key: CacheKey) -> int:
        # ``hash()`` is salted per process for strings; use a stable digest so
        # partition routing (and therefore experiment results) is reproducible
        # across runs.
        return zlib.crc32(repr(key).encode("utf-8")) % self.config.num_partitions

    def _route(self, key: CacheKey, value_size: int) -> SoALRUCache:
        index = self._partition_index(key)
        if value_size <= self.config.small_row_threshold_bytes:
            return self._memory_caches[index]
        return self._cpu_caches[index]

    def _route_for_lookup(self, key: CacheKey, size_hint: Optional[int]) -> List[SoALRUCache]:
        """When no size hint is available, check both internal caches."""
        index = self._partition_index(key)
        if size_hint is not None:
            return [self._route(key, size_hint)]
        return [self._memory_caches[index], self._cpu_caches[index]]

    # ------------------------------------------------------------------ API
    def get(self, key: CacheKey, size_hint: Optional[int] = None) -> Optional[int]:
        """Look up a row; its size in bytes on a hit.  ``size_hint`` (the
        row byte size, known from the table spec) avoids probing both
        internal caches."""
        caches = self._route_for_lookup(key, size_hint)
        for position, cache in enumerate(caches):
            size = cache.get(key)
            if size is not None:
                # Credit back the misses recorded by earlier probes so the
                # unified hit rate counts one logical lookup.
                for probed in caches[:position]:
                    probed.stats.misses -= 1
                return size
        # Only count one logical miss even if both internal caches were probed.
        for probed in caches[1:]:
            probed.stats.misses -= 1
        return None

    def put(self, key: CacheKey, size: int) -> bool:
        """Enter a row of ``size`` bytes into the internal cache its size
        routes it to."""
        return self._route(key, size).put(key, size)

    def contains(self, key: CacheKey) -> bool:
        index = self._partition_index(key)
        return self._memory_caches[index].contains(key) or self._cpu_caches[index].contains(key)

    # ------------------------------------------------------------- batch API
    @property
    def batchable(self) -> bool:
        """Whether batches reach one internal cache as array operations:
        a single partition, so no key is routed on its own."""
        return self.config.num_partitions == 1

    def _batch_cache(self, row_len: int) -> SoALRUCache:
        """The single internal cache all ``(table, stored)`` keys of one size
        route to when there is exactly one partition."""
        if row_len <= self.config.small_row_threshold_bytes:
            return self._memory_caches[0]
        return self._cpu_caches[0]

    def probe_batch(
        self,
        table_name: str,
        stored_indices: np.ndarray,
        row_len: int,
        promote_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Batched :meth:`get` with a size hint, one key per stored row.

        Returns ``(hit_mask, admitted)``.  ``promote_mask`` interleaves
        promotion fills with the probes — each marked row is :meth:`put`
        right after its :meth:`get` — and ``admitted`` counts the fills the
        cache accepted.

        A :attr:`batchable` cache does this in a handful of array ops (see
        :meth:`SoALRUCache.probe_batch`; with fills the caller must have
        cleared the batch through :meth:`promotion_hazard`).  Any other
        cache walks the keys one by one, which keeps partition routing
        exact.
        """
        if self.batchable:
            return self._batch_cache(row_len).probe_batch(
                table_name, stored_indices, row_len, promote_mask
            )
        return self._probe_keys(table_name, stored_indices, row_len, promote_mask)

    def lookup_batch(self, table_name: str, stored: np.ndarray, row_len: int) -> np.ndarray:
        """Resolve rows ``row_len`` bytes long: each row's slot in the
        internal cache such rows route to, ``-1`` when absent.  Non-mutating.

        The resolution stays valid while no row is inserted or removed, so
        the probes of a run (:meth:`probe_run`) and a promotion certificate
        (:meth:`promotion_hazard`) consume it instead of looking the rows up
        again.  A cache that is not :attr:`batchable` routes keys one at a
        time; it reports membership only (``0``: present) and its probes
        resolve each key themselves.
        """
        if self.batchable:
            return self._batch_cache(row_len).lookup_slots(table_name, stored)
        return np.where(self.contains_batch(table_name, stored, size_hint=row_len), 0, -1)

    def probe_run(self, batches: Sequence[ResolvedBatch]) -> List[np.ndarray]:
        """Probe a run of resolved batches, one after another: batch by
        batch, the same as :meth:`probe_batch` without fills.

        Each batch is ``(table_name, stored, slots, row_len)`` with ``slots``
        from :meth:`lookup_batch`.  Returns each batch's boolean hit mask.
        A batchable cache probes each internal cache once for the whole run
        (:meth:`SoALRUCache.probe_run`).
        """
        if not self.batchable:
            return [
                self._probe_keys(table_name, stored, row_len)[0]
                for table_name, stored, _, row_len in batches
            ]
        # Each internal cache takes its share of the run, in order; keyed by
        # whether the rows are small (see :meth:`_batch_cache`).
        threshold = self.config.small_row_threshold_bytes
        routed: Dict[bool, List[int]] = {}
        for position, (_, _, _, row_len) in enumerate(batches):
            routed.setdefault(row_len <= threshold, []).append(position)
        if len(routed) == 1:
            return self._batch_cache(batches[0][3]).probe_run(batches)
        masks: List[np.ndarray] = [np.empty(0, dtype=bool)] * len(batches)
        for members in routed.values():
            cache = self._batch_cache(batches[members[0]][3])
            for position, mask in zip(members, cache.probe_run([batches[at] for at in members])):
                masks[position] = mask
        return masks

    def probe_and_promote(
        self,
        table_name: str,
        stored: np.ndarray,
        slots: np.ndarray,
        row_len: int,
        promote_mask: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """:meth:`probe_batch` with promotion fills for rows resolved by
        :meth:`lookup_batch`; returns ``(hit_mask, admitted)``."""
        if self.batchable:
            return self._batch_cache(row_len).probe_and_promote(
                table_name, stored, slots, row_len, promote_mask
            )
        return self._probe_keys(table_name, stored, row_len, promote_mask)

    def _probe_keys(
        self,
        table_name: str,
        stored_indices: np.ndarray,
        row_len: int,
        promote_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """:meth:`probe_batch` one key at a time through :meth:`get` and
        :meth:`put`."""
        stored = np.asarray(stored_indices, dtype=np.int64)
        hit_mask = np.zeros(stored.size, dtype=bool)
        admitted = 0
        for position in range(stored.size):
            key = (table_name, int(stored[position]))
            hit_mask[position] = self.get(key, size_hint=row_len) is not None
            if promote_mask is not None and promote_mask[position]:
                admitted += self.put(key, row_len)
        return hit_mask, admitted

    def promotion_hazard(self, slots: np.ndarray, num_fills: int, row_len: int) -> bool:
        """Whether ``num_fills`` promotion fills interleaved with a batched
        probe of rows resolved to ``slots`` (:meth:`lookup_batch`) could
        change what a later probe of the same batch finds.  Non-mutating.

        ``True`` for a cache that is not :attr:`batchable` (where each fill
        lands depends on the key) and when the fills would evict a row the
        same batch hits (see :meth:`SoALRUCache.promotion_hazard`).  The
        caller then probes a shorter run of rows; one row is always exact.
        """
        if not self.batchable:
            return True
        return self._batch_cache(row_len).promotion_hazard(slots, num_fills, row_len)

    def fill_batch(self, table_name: str, stored_indices: np.ndarray, row_len: int) -> int:
        """Batched :meth:`put`, one ``row_len``-byte row per stored index;
        returns the number of rows admitted."""
        if self.batchable:
            return self._batch_cache(row_len).fill_batch(table_name, stored_indices, row_len)
        stored = np.asarray(stored_indices, dtype=np.int64)
        return sum(
            self.put((table_name, int(stored[position])), row_len)
            for position in range(stored.size)
        )

    def contains_batch(
        self,
        table_name: str,
        stored_indices: np.ndarray,
        size_hint: Optional[int] = None,
    ) -> np.ndarray:
        """Vectorised membership test; no stats, no LRU effect.

        With a size hint only the routed internal cache is consulted — a row
        of that size can never have been inserted into the other one.
        """
        stored = np.asarray(stored_indices, dtype=np.int64)
        if self.config.num_partitions == 1:
            if size_hint is not None:
                return self._batch_cache(size_hint).contains_batch(table_name, stored)
            memory = self._memory_caches[0].contains_batch(table_name, stored)
            return memory | self._cpu_caches[0].contains_batch(table_name, stored)
        mask = np.zeros(stored.size, dtype=bool)
        for position in range(stored.size):
            mask[position] = self.contains((table_name, int(stored[position])))
        return mask

    def invalidate(self, key: CacheKey) -> bool:
        index = self._partition_index(key)
        removed = self._memory_caches[index].invalidate(key)
        removed = self._cpu_caches[index].invalidate(key) or removed
        return removed

    def _all_caches(self) -> List[SoALRUCache]:
        return [*self._memory_caches, *self._cpu_caches]

    # ----------------------------------------------------------------- stats
    @property
    def stats(self) -> CacheStats:
        merged = CacheStats()
        for cache in self._all_caches():
            merged.merge(cache.stats)
        return merged

    @property
    def used_bytes(self) -> int:
        return sum(cache.used_bytes for cache in self._all_caches())

    @property
    def item_count(self) -> int:
        return sum(cache.item_count for cache in self._all_caches())

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    @property
    def memory_optimized_stats(self) -> CacheStats:
        merged = CacheStats()
        for cache in self._memory_caches:
            merged.merge(cache.stats)
        return merged

    @property
    def cpu_optimized_stats(self) -> CacheStats:
        merged = CacheStats()
        for cache in self._cpu_caches:
            merged.merge(cache.stats)
        return merged
