"""Tests for the byte-budgeted LRU cache."""

import pytest

from repro.cache import LRUCache
from repro.sim.state import CONTENTS, COUNTER, record, reset


def _cache(capacity=1024, overhead=0):
    cache = LRUCache(capacity, per_item_overhead_bytes=overhead)
    record(cache)
    return cache


class TestLRUBasics:
    def test_get_miss_returns_none(self):
        cache = _cache()
        assert cache.get("a") is None
        assert cache.stats.misses == 1

    def test_put_then_get(self):
        cache = _cache()
        cache.put("a", 5)
        assert cache.get("a") == 5
        assert cache.stats.hits == 1

    def test_used_bytes_includes_overhead(self):
        cache = _cache(overhead=10)
        cache.put("a", 5)
        assert cache.used_bytes == 15

    def test_replacing_key_updates_bytes(self):
        cache = _cache()
        cache.put("a", 5)
        cache.put("a", 2)
        assert cache.used_bytes == 2
        assert cache.item_count == 1

    def test_clear(self):
        cache = _cache()
        cache.put("a", 1)
        cache.put("b", 1)
        reset(cache, {CONTENTS})
        assert cache.item_count == 0
        assert cache.used_bytes == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(100, per_item_overhead_bytes=-1)


class TestLRUEviction:
    def test_lru_entry_evicted_first(self):
        cache = _cache(capacity=30)
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get("a")  # touch a so b is now least recently used
        cache.put("d", 10)
        assert "a" in list(cache.keys())
        assert "b" not in list(cache.keys())

    def test_eviction_counted(self):
        cache = _cache(capacity=20)
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        assert cache.stats.evictions >= 1

    def test_capacity_never_exceeded(self):
        cache = _cache(capacity=100, overhead=4)
        for index in range(200):
            cache.put(index, 10)
            assert cache.used_bytes <= 100

    def test_value_larger_than_capacity_rejected(self):
        cache = _cache(capacity=8)
        assert cache.put("big", 100) is False
        assert cache.stats.rejected_inserts == 1
        assert cache.item_count == 0

    def test_get_refreshes_recency(self):
        cache = _cache(capacity=22)
        cache.put("a", 10)
        cache.put("b", 10)
        cache.get("a")
        cache.put("c", 10)  # evicts b, not a
        assert "a" in list(cache.keys())
        assert "b" not in list(cache.keys())

    def test_keys_iterate_lru_to_mru(self):
        cache = _cache()
        cache.put("a", 1)
        cache.put("b", 1)
        cache.get("a")
        assert list(cache.keys()) == ["b", "a"]


class TestLRUAccounting:
    def test_hit_rate(self):
        cache = _cache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_cpu_seconds_accumulate(self):
        cache = _cache()
        cache.put("a", 1)
        cache.get("a")
        assert cache.stats.cpu_seconds > 0

    def test_reset_stats_keeps_contents(self):
        cache = _cache()
        cache.put("a", 1)
        cache.get("a")
        reset(cache, {COUNTER})
        assert cache.stats.hits == 0
        assert "a" in list(cache.keys())
