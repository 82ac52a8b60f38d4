"""Byte-budgeted LRU cache.

The plain dict-backed statement of the eviction machinery:
:class:`~repro.cache.soa.SoALRUCache` must match it in every observable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import ClassVar, Iterator, Mapping, Optional

from repro.cache.base import CacheKey, RowCache
from repro.sim.state import CONTENTS


class LRUCache(RowCache):
    """Least-recently-used cache with a byte capacity.

    Parameters
    ----------
    capacity_bytes:
        Total byte budget, including ``per_item_overhead_bytes`` for each
        cached entry.
    per_item_overhead_bytes:
        Metadata bytes charged per entry (hash table slot, LRU links,
        key storage).
    lookup_cpu_seconds / insert_cpu_seconds:
        Modelled host CPU time per operation, accumulated into ``stats``.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"_entries": CONTENTS, "_used_bytes": CONTENTS}

    def __init__(
        self,
        capacity_bytes: int,
        per_item_overhead_bytes: int = 32,
        lookup_cpu_seconds: float = 2.0e-7,
        insert_cpu_seconds: float = 4.0e-7,
    ) -> None:
        super().__init__(capacity_bytes)
        if per_item_overhead_bytes < 0:
            raise ValueError(
                f"per_item_overhead_bytes must be non-negative: {per_item_overhead_bytes}"
            )
        self.per_item_overhead_bytes = per_item_overhead_bytes
        self.lookup_cpu_seconds = lookup_cpu_seconds
        self.insert_cpu_seconds = insert_cpu_seconds
        # Key -> the entry's size in bytes.
        self._entries: "OrderedDict[CacheKey, int]" = OrderedDict()
        self._used_bytes = 0

    # ------------------------------------------------------------- internals
    def _entry_size(self, size: int) -> int:
        return size + self.per_item_overhead_bytes

    def _evict_until_fits(self, needed: int) -> None:
        while self._entries and self._used_bytes + needed > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._used_bytes -= self._entry_size(evicted)
            self.stats.evictions += 1

    def _charge_lookup(self) -> None:
        self.stats.cpu_seconds += self.lookup_cpu_seconds

    # ------------------------------------------------------------------ API
    def get(self, key: CacheKey) -> Optional[int]:
        self._charge_lookup()
        size = self._entries.get(key)
        if size is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return size

    def put(self, key: CacheKey, size: int) -> bool:
        self.stats.cpu_seconds += self.insert_cpu_seconds
        entry_size = self._entry_size(size)
        if entry_size > self.capacity_bytes:
            self.stats.rejected_inserts += 1
            return False
        if key in self._entries:
            self._used_bytes -= self._entry_size(self._entries[key])
            del self._entries[key]
        self._evict_until_fits(entry_size)
        self._entries[key] = size
        self._used_bytes += entry_size
        self.stats.inserts += 1
        return True

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def item_count(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[CacheKey]:
        """Iterate keys from least to most recently used (for inspection)."""
        return iter(self._entries.keys())
