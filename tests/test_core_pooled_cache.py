"""Tests for the pooled embedding cache (Algorithm 1) and Table 3 profiling."""

import numpy as np
import pytest

from repro.core import (
    PooledEmbeddingCache,
    order_invariant_hash,
    order_invariant_hash_batch,
    profile_subsequence_schemes,
)
from repro.sim.state import CONTENTS, COUNTER, record, reset


class TestOrderInvariantHash:
    def test_order_invariance(self):
        assert order_invariant_hash([1, 2, 3]) == order_invariant_hash([3, 1, 2])

    def test_different_sets_differ(self):
        assert order_invariant_hash([1, 2, 3]) != order_invariant_hash([1, 2, 4])

    def test_multiset_sensitivity(self):
        assert order_invariant_hash([1]) != order_invariant_hash([1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_invariant_hash([])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            order_invariant_hash([-1])

    def test_stable_across_calls(self):
        assert order_invariant_hash([5, 9, 11]) == order_invariant_hash([5, 9, 11])


class TestOrderInvariantHashBatch:
    """The vectorised hash must equal the scalar hash value for value."""

    @pytest.mark.parametrize(
        "indices",
        [
            [0],
            [1, 2, 3],
            [3, 1, 2],
            [1, 1, 7],
            list(range(100)),
            [2**62, 2**63 - 1, 0, 5],  # uint64 wrap-around territory
        ],
    )
    def test_matches_scalar_hash(self, indices):
        array = np.asarray(indices, dtype=np.int64)
        assert order_invariant_hash_batch(array) == order_invariant_hash(indices)

    def test_order_invariance(self):
        forward = np.arange(50, dtype=np.int64)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(forward)
        assert order_invariant_hash_batch(forward) == order_invariant_hash_batch(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_invariant_hash_batch(np.array([], dtype=np.int64))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            order_invariant_hash_batch(np.array([3, -1], dtype=np.int64))


class TestPooledCacheBatchProbes:
    """probe_batch/put_batch: full-sequence probes keyed by the vectorised hash."""

    def test_probe_then_fill_accounting(self):
        # The serve path's loop: probe each sequence, fill it on a miss.
        cache = PooledEmbeddingCache(capacity_bytes=64 * 1024, len_threshold=2)
        size = 16
        for table, indices in [
            ("t", [1, 2, 3]), ("t", [9]), ("t", [1, 2, 3]), ("t", [5, 6, 7, 8]),
            ("t", [3, 2, 1]), ("u", [1, 2, 3]),
        ]:
            array = np.asarray(indices, dtype=np.int64)
            if not cache.probe_batch(table, array):
                cache.put_batch(table, array, size)
        stats = cache.stats
        assert (stats.lookups, stats.hits, stats.misses, stats.skipped_short) == (5, 2, 3, 1)
        assert stats.inserts == 3 and stats.hit_index_count == 6
        # Table "u" keys its own entry for the same indices.
        assert cache.item_count == 3
        assert cache.used_bytes == 3 * (size + 56)

    def test_miss_then_hit(self):
        cache = PooledEmbeddingCache(64 * 1024, len_threshold=1)
        size = 32
        assert not cache.probe_batch("t", [1, 2, 3])
        cache.put_batch("t", [1, 2, 3], size)
        assert cache.probe_batch("t", [1, 2, 3])

    def test_hit_is_order_invariant(self):
        cache = PooledEmbeddingCache(64 * 1024)
        size = 16
        cache.put_batch("t", [4, 5, 6], size)
        assert cache.probe_batch("t", [6, 4, 5])

    def test_len_threshold_skips_short_requests(self):
        cache = PooledEmbeddingCache(64 * 1024, len_threshold=4)
        size = 16
        assert not cache.put_batch("t", [1, 2], size)
        assert not cache.probe_batch("t", [1, 2])
        assert cache.stats.lookups == 0
        assert cache.stats.skipped_short > 0

    def test_eligibility_matches_algorithm1_predicate(self):
        cache = PooledEmbeddingCache(1024, len_threshold=3)
        assert not cache.eligible([1, 2, 3])
        assert cache.eligible([1, 2, 3, 4])

    def test_different_tables_do_not_collide(self):
        cache = PooledEmbeddingCache(64 * 1024)
        cache.put_batch("a", [1, 2], 8)
        assert not cache.probe_batch("b", [1, 2])

    def test_stats_hit_rate_and_avg_length(self):
        cache = PooledEmbeddingCache(64 * 1024)
        cache.put_batch("t", [1, 2, 3, 4], 8)
        cache.probe_batch("t", [1, 2, 3, 4])
        cache.probe_batch("t", [9, 9, 9])
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.average_hit_length == pytest.approx(4.0)

    def test_capacity_eviction(self):
        cache = PooledEmbeddingCache(1024)
        size = 256  # bytes each, plus overhead
        for sequence_id in range(20):
            cache.put_batch("t", [sequence_id, sequence_id + 1], size)
        assert cache.used_bytes <= cache.capacity_bytes

    def test_clear_and_reset(self):
        cache = PooledEmbeddingCache(64 * 1024)
        record(cache)
        cache.put_batch("t", [1, 2], 16)
        reset(cache, {CONTENTS})
        assert not cache.probe_batch("t", [1, 2])
        reset(cache, {COUNTER})
        assert cache.stats.lookups == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            PooledEmbeddingCache(1024, len_threshold=-1)


class TestSubsequenceProfiling:
    def _sequences(self):
        rng = np.random.default_rng(0)
        base = [list(rng.choice(500, size=15, replace=False)) for _ in range(30)]
        sequences = []
        for query_id in range(300):
            if query_id % 10 == 0 and sequences:
                sequences.append(list(base[query_id % len(base)]))
            else:
                sequences.append(list(rng.choice(500, size=15, replace=False)))
        return sequences

    def test_returns_three_schemes(self):
        profiles = profile_subsequence_schemes(self._sequences(), subsequence_length=10)
        assert [p.scheme for p in profiles] == ["c=10", "c=10, top indices", "c=P"]

    def test_general_scheme_hit_rate_at_least_full_sequence(self):
        profiles = profile_subsequence_schemes(self._sequences(), subsequence_length=10)
        by_scheme = {p.scheme: p for p in profiles}
        assert by_scheme["c=10"].hit_rate >= by_scheme["c=P"].hit_rate

    def test_generated_sequences_ordering_matches_table3(self):
        """c=10 generates combinatorially many candidate subsequences, the
        top-indices variant O(top), and c=P exactly one."""
        profiles = profile_subsequence_schemes(self._sequences(), subsequence_length=10)
        by_scheme = {p.scheme: p for p in profiles}
        assert by_scheme["c=P"].generated_sequences_per_query == 1.0
        assert (
            by_scheme["c=10"].generated_sequences_per_query
            > by_scheme["c=10, top indices"].generated_sequences_per_query
            > by_scheme["c=P"].generated_sequences_per_query
        )

    def test_full_sequence_hits_counted(self):
        sequences = [[1, 2, 3], [4, 5, 6], [3, 2, 1], [1, 2, 3]]
        profiles = profile_subsequence_schemes(sequences, subsequence_length=3)
        full = [p for p in profiles if p.scheme == "c=P"][0]
        assert full.hit_rate == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            profile_subsequence_schemes([])

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            profile_subsequence_schemes([[1, 2]], subsequence_length=0)
