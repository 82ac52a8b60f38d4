"""Tests for the memory-optimised vs CPU-optimised cache organisations."""

import numpy as np
import pytest

from repro.cache import CPU_OPTIMIZED, MEMORY_OPTIMIZED


def _filled(organization, capacity, row, count):
    cache = organization.build(capacity)
    cache.fill_batch(row, np.arange(count))
    return cache


class TestOrganizationTradeoffs:
    def test_memory_optimised_has_lower_per_item_overhead(self):
        assert MEMORY_OPTIMIZED.per_item_overhead_bytes < CPU_OPTIMIZED.per_item_overhead_bytes

    def test_memory_optimised_stores_more_small_rows(self):
        """For small (<256B) rows the compact layout fits meaningfully more
        entries into the same byte budget -- the reason the unified cache
        routes small rows there (Figure 6)."""
        memory_cache = _filled(MEMORY_OPTIMIZED, 64 * 1024, 64, 4096)
        cpu_cache = _filled(CPU_OPTIMIZED, 64 * 1024, 64, 4096)
        assert memory_cache.item_count > cpu_cache.item_count * 1.3

    def test_cpu_optimised_lookups_cost_less_cpu(self):
        memory_cache = _filled(MEMORY_OPTIMIZED, 1024, 1, 1)
        cpu_cache = _filled(CPU_OPTIMIZED, 1024, 1, 1)
        for _ in range(100):
            memory_cache.get(0)
            cpu_cache.get(0)
        assert cpu_cache.stats.cpu_seconds < memory_cache.stats.cpu_seconds

    def test_overhead_difference_negligible_for_large_rows(self):
        """For >256B rows the metadata overhead is a small fraction either
        way, so the CPU-optimised organisation is the better choice."""
        memory_cache = _filled(MEMORY_OPTIMIZED, 256 * 1024, 512, 1024)
        cpu_cache = _filled(CPU_OPTIMIZED, 256 * 1024, 512, 1024)
        ratio = memory_cache.item_count / cpu_cache.item_count
        assert ratio < 1.15

    def test_both_behave_as_lru(self):
        for cache in (MEMORY_OPTIMIZED.build(64), CPU_OPTIMIZED.build(128)):
            cache.put(0, 10)
            cache.put(1, 10)
            cache.get(0)
            cache.put(2, 40)
            assert 1 not in list(cache.keys())
            assert 2 in list(cache.keys())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MEMORY_OPTIMIZED.build(0)
        with pytest.raises(ValueError):
            CPU_OPTIMIZED.build(-1)
