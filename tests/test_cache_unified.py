"""Tests for the unified (dual) row cache of section 4.3."""

import numpy as np
import pytest

from repro.cache import UnifiedRowCache
from repro.sim.state import CONTENTS, COUNTER, record, reset


def _cache(capacity=64 * 1024):
    cache = UnifiedRowCache(capacity)
    record(cache)
    return cache


class TestUnifiedRouting:
    def test_small_rows_go_to_memory_optimised_cache(self):
        cache = _cache()
        cache.put(1, 100)
        assert cache._memory_cache.stats.inserts == 1
        assert cache._cpu_cache.stats.inserts == 0

    def test_large_rows_go_to_cpu_optimised_cache(self):
        cache = _cache()
        cache.put(1, 512)
        assert cache._cpu_cache.stats.inserts == 1
        assert cache._memory_cache.stats.inserts == 0

    def test_threshold_boundary(self):
        cache = _cache()
        cache.put(0, 255)
        cache.put(1, 256)
        assert cache._memory_cache.stats.inserts == 1
        assert cache._cpu_cache.stats.inserts == 1

    def test_get_with_size_hint_finds_value(self):
        cache = _cache()
        cache.put(1, 100)
        assert cache.get(1, 100) == 100

    def test_one_logical_hit_recorded(self):
        cache = _cache()
        cache.put(1, 512)
        cache.get(1, 512)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_batches_route_by_row_length(self):
        cache = _cache()
        # Keys 0-3 name 64-byte rows, keys 4-6 512-byte rows.
        assert cache.fill_batch(64, np.arange(4)) == 4
        assert cache.fill_batch(512, 4 + np.arange(3)) == 3
        assert cache._memory_cache.item_count == 4 and cache._cpu_cache.item_count == 3
        small = np.array([0, 9, 3])
        large = np.array([6, 11])
        masks = cache.probe_run(
            [
                (small, cache.lookup_batch(64, small), 64),
                (large, cache.lookup_batch(512, large), 512),
                (small[:1], cache.lookup_batch(64, small[:1]), 64),
            ]
        )
        assert [list(mask) for mask in masks] == [[True, False, True], [True, False], [True]]
        assert cache._memory_cache.stats.hits == 3 and cache._cpu_cache.stats.hits == 1
        assert cache.stats.lookups == 6


class TestUnifiedCapacityAndStats:
    def test_budget_split_between_internal_caches(self):
        cache = UnifiedRowCache(100_000)
        assert cache.capacity_bytes == 100_000
        assert cache._memory_cache.capacity_bytes == 80_000
        assert cache._cpu_cache.capacity_bytes == 20_000

    def test_hit_rate_aggregates_across_caches(self):
        cache = _cache()
        cache.put(0, 64)
        cache.put(1, 512)
        cache.get(0, 64)
        cache.get(1, 512)
        cache.get(2, 64)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_used_bytes_and_item_count(self):
        cache = _cache()
        cache.put(0, 100)
        cache.put(1, 300)
        assert cache.item_count == 2
        assert cache.used_bytes >= 400

    def test_clear(self):
        cache = _cache()
        cache.put(0, 100)
        cache.put(1, 300)
        reset(cache, {CONTENTS})
        assert cache.item_count == 0 and cache.used_bytes == 0

    def test_reset_stats(self):
        cache = _cache()
        cache.put(0, 100)
        cache.get(0, 100)
        reset(cache, {COUNTER})
        assert cache.stats.lookups == 0


class TestUnifiedPartitionsAndAdmission:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            UnifiedRowCache(0)
        with pytest.raises(ValueError):
            UnifiedRowCache(-1)
