"""Common cache interface and statistics."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Hashable, Mapping, Optional

from repro.sim.state import COUNTER, Counters

CacheKey = Hashable


@dataclass
class CacheStats(Counters):
    """Hit/miss/eviction counters plus CPU-time accounting.

    ``cpu_seconds`` accumulates the modelled host CPU cost of lookups and
    inserts, which is what differentiates the memory-optimised and
    CPU-optimised organisations in Figure 6 of the paper.
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    rejected_inserts: int = 0
    cpu_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class RowCache(abc.ABC):
    """Byte-budgeted cache of embedding rows.

    An entry is a key and the byte size of the row it stands for; the cache
    budgets, evicts and counts by those sizes and holds no row bytes.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"stats": COUNTER}

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()

    @abc.abstractmethod
    def get(self, key: CacheKey) -> Optional[int]:
        """Return the cached entry's size in bytes or ``None``; records a
        hit or miss."""

    @abc.abstractmethod
    def put(self, key: CacheKey, size: int) -> bool:
        """Insert an entry of ``size`` bytes, evicting as needed.  Returns
        ``False`` if rejected."""

    @property
    @abc.abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently consumed, including per-item metadata overhead."""

    @property
    @abc.abstractmethod
    def item_count(self) -> int:
        """Number of cached entries."""
