"""Fast-memory (FM) software-managed cache substrate.

A stand-in for CacheLib as used by the paper (section 4.3): the unified row
cache is two byte-budgeted LRU caches -- a memory-optimised organisation
with low per-item metadata overhead but a bucket search on lookup, and a
CPU-optimised one with higher per-item overhead but constant-time lookups --
and routes small embedding rows (<= 255 B) to the first and larger rows to
the second.  Like CacheLib, it knows no embedding tables: a cached row is
named by one int, the key the tier chain numbers it with
(:meth:`~repro.hierarchy.chain.TierChain.row_keys`).  The tier chain drives
it through one batch API; :class:`LRUCache` and the scalar ``get``/``put``
are the per-row reference.
"""

from repro.cache.base import CacheStats, RowCache
from repro.cache.lru import LRUCache
from repro.cache.soa import SoALRUCache
from repro.cache.unified import (
    CPU_OPTIMIZED,
    MEMORY_OPTIMIZED,
    CacheOrganization,
    UnifiedRowCache,
)

__all__ = [
    "CacheStats",
    "RowCache",
    "LRUCache",
    "SoALRUCache",
    "CacheOrganization",
    "MEMORY_OPTIMIZED",
    "CPU_OPTIMIZED",
    "UnifiedRowCache",
]
