"""Tests for the unified (dual) row cache of section 4.3."""

import pytest

from repro.cache import UnifiedCacheConfig, UnifiedRowCache
from repro.sim.state import CONTENTS, COUNTER, record, reset


def _cache(capacity=64 * 1024, partitions=1, **kwargs):
    cache = UnifiedRowCache(
        UnifiedCacheConfig(capacity_bytes=capacity, num_partitions=partitions, **kwargs)
    )
    record(cache)
    return cache


class TestUnifiedRouting:
    def test_small_rows_go_to_memory_optimised_cache(self):
        cache = _cache()
        cache.put(("t", 1), 100)
        assert cache.memory_optimized_stats.inserts == 1
        assert cache.cpu_optimized_stats.inserts == 0

    def test_large_rows_go_to_cpu_optimised_cache(self):
        cache = _cache()
        cache.put(("t", 1), 512)
        assert cache.cpu_optimized_stats.inserts == 1
        assert cache.memory_optimized_stats.inserts == 0

    def test_threshold_boundary(self):
        cache = _cache()
        cache.put(("small", 0), 255)
        cache.put(("large", 0), 256)
        assert cache.memory_optimized_stats.inserts == 1
        assert cache.cpu_optimized_stats.inserts == 1

    def test_get_with_size_hint_finds_value(self):
        cache = _cache()
        cache.put(("t", 1), 100)
        assert cache.get(("t", 1), size_hint=100) == 100

    def test_get_without_size_hint_probes_both(self):
        cache = _cache()
        cache.put(("t", 1), 512)
        assert cache.get(("t", 1)) is not None

    def test_one_logical_miss_recorded_even_when_both_probed(self):
        cache = _cache()
        cache.get(("missing", 1))
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 1

    def test_one_logical_hit_recorded(self):
        cache = _cache()
        cache.put(("t", 1), 512)
        cache.get(("t", 1))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0


class TestUnifiedCapacityAndStats:
    def test_budget_split_between_internal_caches(self):
        config = UnifiedCacheConfig(capacity_bytes=100_000, memory_optimized_fraction=0.7)
        cache = UnifiedRowCache(config)
        assert cache.capacity_bytes == 100_000

    def test_hit_rate_aggregates_across_caches(self):
        cache = _cache()
        cache.put(("s", 0), 64)
        cache.put(("l", 0), 512)
        cache.get(("s", 0), size_hint=64)
        cache.get(("l", 0), size_hint=512)
        cache.get(("missing", 0), size_hint=64)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_used_bytes_and_item_count(self):
        cache = _cache()
        cache.put(("a", 0), 100)
        cache.put(("b", 0), 300)
        assert cache.item_count == 2
        assert cache.used_bytes >= 400

    def test_invalidate_and_clear(self):
        cache = _cache()
        cache.put(("a", 0), 100)
        assert cache.invalidate(("a", 0))
        assert not cache.invalidate(("a", 0))
        cache.put(("b", 0), 100)
        reset(cache, {CONTENTS})
        assert cache.item_count == 0

    def test_contains(self):
        cache = _cache()
        cache.put(("a", 0), 100)
        assert cache.contains(("a", 0))
        assert not cache.contains(("z", 0))

    def test_reset_stats(self):
        cache = _cache()
        cache.put(("a", 0), 100)
        cache.get(("a", 0), size_hint=100)
        reset(cache, {COUNTER})
        assert cache.stats.lookups == 0


class TestUnifiedPartitionsAndAdmission:
    def test_partitioning_preserves_correctness(self):
        cache = _cache(partitions=4)
        for index in range(100):
            cache.put(("t", index), 64)
        hits = sum(
            1 for index in range(100) if cache.get(("t", index), size_hint=64) is not None
        )
        assert hits > 50  # most survive; partitioning must not lose everything

    def test_partition_routing_is_stable(self):
        cache = _cache(partitions=4)
        cache.put(("t", 12345), 64)
        for _ in range(5):
            assert cache.get(("t", 12345), size_hint=64) is not None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            UnifiedCacheConfig(capacity_bytes=0)
        with pytest.raises(ValueError):
            UnifiedCacheConfig(capacity_bytes=100, memory_optimized_fraction=1.5)
        with pytest.raises(ValueError):
            UnifiedCacheConfig(capacity_bytes=100, num_partitions=0)
        with pytest.raises(ValueError):
            UnifiedCacheConfig(capacity_bytes=100, small_row_threshold_bytes=0)
