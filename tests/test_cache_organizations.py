"""Tests for the memory-optimised vs CPU-optimised cache organisations."""

import pytest

from repro.cache import CPUOptimizedCache, MemoryOptimizedCache
from repro.cache.cpu_optimized import CPU_OPTIMIZED_OVERHEAD_BYTES
from repro.cache.memory_optimized import MEMORY_OPTIMIZED_OVERHEAD_BYTES


class TestOrganizationTradeoffs:
    def test_memory_optimised_has_lower_per_item_overhead(self):
        assert MEMORY_OPTIMIZED_OVERHEAD_BYTES < CPU_OPTIMIZED_OVERHEAD_BYTES

    def test_memory_optimised_stores_more_small_rows(self):
        """For small (<256B) rows the compact layout fits meaningfully more
        entries into the same byte budget -- the reason the unified cache
        routes small rows there (Figure 6)."""
        capacity = 64 * 1024
        row = 64
        memory_cache = MemoryOptimizedCache(capacity)
        cpu_cache = CPUOptimizedCache(capacity)
        for index in range(4096):
            memory_cache.put(("t", index), row)
            cpu_cache.put(("t", index), row)
        assert memory_cache.item_count > cpu_cache.item_count * 1.3

    def test_cpu_optimised_lookups_cost_less_cpu(self):
        memory_cache = MemoryOptimizedCache(1024)
        cpu_cache = CPUOptimizedCache(1024)
        memory_cache.put("k", 1)
        cpu_cache.put("k", 1)
        for _ in range(100):
            memory_cache.get("k")
            cpu_cache.get("k")
        assert cpu_cache.stats.cpu_seconds < memory_cache.stats.cpu_seconds

    def test_overhead_difference_negligible_for_large_rows(self):
        """For >256B rows the metadata overhead is a small fraction either
        way, so the CPU-optimised organisation is the better choice."""
        capacity = 256 * 1024
        row = 512
        memory_cache = MemoryOptimizedCache(capacity)
        cpu_cache = CPUOptimizedCache(capacity)
        for index in range(1024):
            memory_cache.put(("t", index), row)
            cpu_cache.put(("t", index), row)
        ratio = memory_cache.item_count / cpu_cache.item_count
        assert ratio < 1.15

    def test_both_behave_as_lru(self):
        for cache in (MemoryOptimizedCache(64), CPUOptimizedCache(128)):
            cache.put("a", 10)
            cache.put("b", 10)
            cache.get("a")
            cache.put("c", 40)
            assert cache.contains("a") or cache.contains("c")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryOptimizedCache(0)
        with pytest.raises(ValueError):
            CPUOptimizedCache(-1)
