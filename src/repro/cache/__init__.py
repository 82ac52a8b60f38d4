"""Fast-memory (FM) software-managed cache substrate.

A stand-in for CacheLib as used by the paper (section 4.3): an LRU row cache
offered in two flavours -- a memory-optimised variant with low per-item
metadata overhead but a bucket search on lookup, and a CPU-optimised variant
with higher per-item overhead but constant-time lookups -- plus the unified
router that sends small embedding rows (dim <= 255 B) to the memory-optimised
cache and larger rows to the CPU-optimised cache.
"""

from repro.cache.base import CacheStats, RowCache
from repro.cache.lru import LRUCache
from repro.cache.soa import SoALRUCache
from repro.cache.memory_optimized import MemoryOptimizedCache
from repro.cache.cpu_optimized import CPUOptimizedCache
from repro.cache.unified import UnifiedRowCache, UnifiedCacheConfig

__all__ = [
    "CacheStats",
    "RowCache",
    "LRUCache",
    "SoALRUCache",
    "MemoryOptimizedCache",
    "CPUOptimizedCache",
    "UnifiedRowCache",
    "UnifiedCacheConfig",
]
