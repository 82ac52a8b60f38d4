"""Equivalence tests for the structure-of-arrays LRU cache.

``SoALRUCache`` is the array-native engine behind the batched serve core;
its contract is *bit-identical observables* to ``LRUCache`` — same hits,
misses, evictions, eviction order, ``used_bytes`` and modelled CPU
seconds — whether it is driven through the scalar API or the batch API.
These tests drive both caches through mirrored operation sequences and
compare every observable.  Keys are row keys: one int ``>= 0`` per stored
row, as the tier chain numbers them.
"""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.cache.soa import SoALRUCache
from repro.sim.rng import make_rng
from repro.sim.state import CONTENTS, record, reset


def _pair(capacity=1024, overhead=0):
    pair = (
        LRUCache(capacity, per_item_overhead_bytes=overhead),
        SoALRUCache(capacity, per_item_overhead_bytes=overhead),
    )
    for cache in pair:
        record(cache)
    return pair


#: The row length of every test row unless a test says otherwise.
ROW_LEN = 8


def _holds(cache, key):
    """Membership without a lookup: no stats, no recency."""
    return key in list(cache.keys())


def _contains(soa, keys):
    """Batch membership: the keys' resolved slots, no stats, no recency."""
    return soa.lookup_slots(np.asarray(keys, dtype=np.int64)) >= 0


def _probe(soa, keys, row_len=ROW_LEN, promote_mask=None):
    """One batch probe as the tier chain makes it: resolve the keys, then
    probe them, with a promotion fill after each key ``promote_mask``
    marks.  Returns ``(hit_mask, admitted)``."""
    keys = np.asarray(keys, dtype=np.int64)
    slots = soa.lookup_slots(keys)
    if promote_mask is not None and bool(promote_mask.any()):
        return soa.probe_and_promote(keys, slots, row_len, promote_mask)
    (hit_mask,) = soa.probe_run([(keys, slots, row_len)])
    return hit_mask, 0


def _assert_same_observables(reference, soa):
    assert soa.stats.hits == reference.stats.hits
    assert soa.stats.misses == reference.stats.misses
    assert soa.stats.inserts == reference.stats.inserts
    assert soa.stats.evictions == reference.stats.evictions
    assert soa.stats.rejected_inserts == reference.stats.rejected_inserts
    assert soa.stats.cpu_seconds == reference.stats.cpu_seconds
    assert soa.used_bytes == reference.used_bytes
    assert soa.item_count == reference.item_count
    assert list(soa.keys()) == list(reference.keys())


class TestScalarEquivalence:
    def test_random_op_sequence_matches_lru(self):
        reference, soa = _pair(capacity=40 * 16, overhead=8)
        rng = make_rng(0, "soa-test", "scalar-ops")
        for _ in range(2000):
            key = int(rng.integers(0, 64))
            op = rng.random()
            if op < 0.5:
                assert soa.get(key) == reference.get(key)
            elif op < 0.9:
                value = ROW_LEN
                assert soa.put(key, value) == reference.put(key, value)
            else:
                assert _holds(soa, key) == _holds(reference, key)
            _assert_same_observables(reference, soa)

    def test_non_row_keys_rejected(self):
        _, soa = _pair()
        for key in ("plain-string", ("t", 0), -1, False, 1.0):
            with pytest.raises(ValueError):
                soa.put(key, 2)
            with pytest.raises(ValueError):
                soa.get(key)
        assert soa.item_count == 0 and soa.stats.inserts == 0

    def test_oversized_value_rejected(self):
        reference, soa = _pair(capacity=16)
        for cache in (reference, soa):
            assert not cache.put(0, 64)
        _assert_same_observables(reference, soa)

    def test_clear(self):
        reference, soa = _pair()
        for cache in (reference, soa):
            cache.put(1, 1)
            cache.put(2, 1)
        _assert_same_observables(reference, soa)
        for cache in (reference, soa):
            reset(cache, {CONTENTS})
        _assert_same_observables(reference, soa)
        # The index survives a clear: new inserts must still be found.
        for cache in (reference, soa):
            cache.put(2, 1)
        assert soa.get(2) == reference.get(2)
        _assert_same_observables(reference, soa)

    def test_eviction_order_is_lru(self):
        reference, soa = _pair(capacity=3 * 4, overhead=0)
        for cache in (reference, soa):
            cache.put(0, 4)
            cache.put(1, 4)
            cache.put(2, 4)
            cache.get(0)  # touch: 0 becomes most recent
            cache.put(3, 4)  # evicts 1, the least recent
        assert _holds(soa, 0) and _holds(reference, 0)
        assert not _holds(soa, 1) and not _holds(reference, 1)
        _assert_same_observables(reference, soa)


class TestBatchEquivalence:
    def test_probe_batch_equals_scalar_gets(self):
        reference, soa = _pair(capacity=4096)
        rng = make_rng(0, "soa-test", "probe-batch")
        row_len = 8
        for key in range(24):
            value = row_len
            reference.put(key, value)
            soa.put(key, value)
        for _ in range(50):
            keys = rng.integers(0, 44, size=16)  # includes misses
            expected = [reference.get(int(key)) for key in keys]
            hit_mask, admitted = _probe(soa, keys, row_len)
            assert list(hit_mask) == [size is not None for size in expected]
            assert admitted == 0
            _assert_same_observables(reference, soa)

    def test_fill_batch_equals_scalar_puts(self):
        reference, soa = _pair(capacity=24 * 16, overhead=8)
        rng = make_rng(0, "soa-test", "fill-batch")
        row_len = 8
        for _ in range(40):
            keys = rng.integers(0, 64, size=8)
            for key in keys:
                reference.put(int(key), row_len)
            soa.fill_batch(row_len, keys)
            _assert_same_observables(reference, soa)

    def test_contains_batch_has_no_side_effects(self):
        # Resolving keys to slots is the batch membership test.
        _, soa = _pair()
        soa.put(3, 1)
        before = (soa.stats.hits, soa.stats.misses, soa.stats.cpu_seconds, list(soa.keys()))
        mask = _contains(soa, [64, 0, 3, 99])
        assert list(mask) == [False, False, True, False]
        assert (soa.stats.hits, soa.stats.misses, soa.stats.cpu_seconds, list(soa.keys())) == before

    def test_probe_batch_duplicate_rows_keep_last_stamp(self):
        reference, soa = _pair(capacity=2 * 4)
        for cache in (reference, soa):
            cache.put(0, 4)
            cache.put(1, 4)
        # Scalar walk: get(0), get(1), get(0) leaves 1 least-recent.
        for key in (0, 1, 0):
            reference.get(key)
        _probe(soa, [0, 1, 0], 4)
        for cache in (reference, soa):
            cache.put(2, 4)  # evicts 1 in both
        assert not _holds(soa, 1) and not _holds(reference, 1)
        _assert_same_observables(reference, soa)

    def test_probe_batch_row_length_mismatch_raises(self):
        _, soa = _pair()
        soa.put(0, 4)
        with pytest.raises(ValueError, match="row key 0"):
            _probe(soa, [0], 8)

    def test_fill_batch_oversized_rows_all_rejected(self):
        reference, soa = _pair(capacity=4)
        keys = np.array([0, 1, 2])
        for key in keys:
            reference.put(int(key), 64)
        soa.fill_batch(64, keys)
        _assert_same_observables(reference, soa)

    def test_empty_batches_are_noops(self):
        _, soa = _pair()
        hit_mask, admitted = _probe(soa, np.empty(0, dtype=np.int64), 4)
        assert hit_mask.size == 0 and admitted == 0
        soa.fill_batch(4, np.empty(0, dtype=np.int64))
        assert soa.stats.inserts == 0 and soa.stats.cpu_seconds == 0.0


def _replay_fill(reference, keys, row_len=ROW_LEN):
    return sum(reference.put(int(key), row_len) for key in keys)


def _replay_probe(reference, keys, row_len=ROW_LEN, promote_mask=None):
    """The scalar walk on one cache: get every row in order, and put a
    promoted row right after its get.  Returns each row's hit flag."""
    hits = []
    for position, key in enumerate(keys):
        hits.append(reference.get(int(key)) is not None)
        if promote_mask is not None and promote_mask[position]:
            reference.put(int(key), row_len)
    return hits


class TestNegativeIndices:
    def test_negative_stored_index_does_not_alias_the_last_row(self):
        _, soa = _pair()
        soa.fill_batch(3, np.arange(3))
        # index[-1] would be key 63, the direct index's last element: every
        # entry point rejects the key instead of reading or writing it.
        with pytest.raises(ValueError):
            soa.put(-1, 3)
        with pytest.raises(ValueError):
            soa.get(-1)
        with pytest.raises(ValueError):
            soa.fill_batch(3, np.array([5, -1]))
        with pytest.raises(ValueError):
            soa.lookup_slots(np.array([63, -1]))
        with pytest.raises(ValueError):
            _probe(soa, [-1, 5], 3)
        assert list(soa.keys()) == [0, 1, 2]
        assert soa.stats.lookups == 0 and soa.stats.inserts == 3
        assert soa.stats.cpu_seconds == 3 * soa.insert_cpu_seconds
        assert not _contains(soa, [63])[0]


class TestBatchMutation:
    def test_random_interleaved_operations_match_lru(self):
        # Every operation the serve path issues, in random order, over the
        # key ranges of two tables with different row lengths sharing one
        # byte budget.
        reference, soa = _pair(capacity=40 * 16, overhead=8)
        rng = make_rng(0, "soa-test", "interleaved")
        first_keys, row_lens = {"a": 0, "b": 96}, {"a": 8, "b": 24}
        for _ in range(1500):
            table = "a" if rng.random() < 0.6 else "b"
            first, row_len = first_keys[table], row_lens[table]
            op = rng.random()
            if op < 0.15:
                key = first + int(rng.integers(0, 96))
                assert soa.get(key) == reference.get(key)
            elif op < 0.3:
                key = first + int(rng.integers(0, 96))
                value = row_len
                assert soa.put(key, value) == reference.put(key, value)
            elif op < 0.55:
                keys = first + rng.integers(0, 96, size=int(rng.integers(1, 24)))
                hit_mask, _ = _probe(soa, keys, row_len)
                assert list(hit_mask) == _replay_probe(reference, keys, row_len)
            elif op < 0.8:
                # Fills: fresh rows, replacements and in-batch duplicates.
                keys = first + rng.integers(0, 96, size=int(rng.integers(1, 24)))
                assert soa.fill_batch(row_len, keys) == _replay_fill(reference, keys, row_len)
            else:
                # Probe with promotion: distinct rows, the misses among a
                # random subset promoted; skipped when the certificate
                # reports a hazard, exactly as the tier chain does.
                keys = first + rng.permutation(96)[: int(rng.integers(1, 24))]
                present = _contains(soa, keys)
                promote_mask = ~present & (rng.random(keys.size) < 0.7)
                fills = int(promote_mask.sum())
                if soa.promotion_hazard(soa.lookup_slots(keys), fills, row_len):
                    continue
                hit_mask, admitted = _probe(soa, keys, row_len, promote_mask)
                assert list(hit_mask) == list(present)
                assert admitted == fills
                assert list(hit_mask) == _replay_probe(reference, keys, row_len, promote_mask)
            _assert_same_observables(reference, soa)
        assert soa.stats.evictions > 100  # the budget was under pressure

    @pytest.mark.parametrize("count", [1, 5, 6, 7, 20])
    def test_fill_batch_larger_than_the_cache(self, count):
        # Five 16-byte entries fit.  A bigger batch evicts its own head: the
        # rows count as inserted and evicted, only the tail survives.
        reference, soa = _pair(capacity=5 * 16, overhead=8)
        for cache in (reference, soa):
            cache.put(90, ROW_LEN)
            cache.put(100, 8)
        keys = np.arange(count)
        assert soa.fill_batch(ROW_LEN, keys) == count
        _replay_fill(reference, keys)
        _assert_same_observables(reference, soa)
        for key in keys:
            assert soa.get(int(key)) == reference.get(int(key))
        _assert_same_observables(reference, soa)

    def test_fill_batch_replacements_and_duplicates(self):
        reference, soa = _pair(capacity=8 * 16, overhead=8)
        first = np.arange(6)
        # Alternating row lengths: a replacement must store the new size.
        for row_len, keys in zip(
            (8, 4, 8, 6), (first, np.array([2, 9, 2, 10]), np.array([11, 0, 12]), np.array([7, 7]))
        ):
            assert soa.fill_batch(row_len, keys) == _replay_fill(reference, keys, row_len)
            _assert_same_observables(reference, soa)
        for key in range(13):
            assert soa.get(key) == reference.get(key)

    def test_recency_log_compaction_mid_sequence(self):
        # The log starts at 64 entries; a resident set probed over and over
        # fills it with dead entries and forces compactions (which renumber
        # every stamp) between evictions, scalar touches and batch touches.
        reference, soa = _pair(capacity=10 * 16, overhead=8)
        keys = np.arange(10)
        soa.fill_batch(ROW_LEN, keys)
        _replay_fill(reference, keys)
        rng = make_rng(0, "soa-test", "compaction")
        compactions = 0
        for step in range(400):
            tail_before = soa._log_tail
            if step % 7 == 3:
                key = int(rng.integers(0, 14))
                assert soa.get(key) == reference.get(key)
            elif step % 11 == 5:
                fresh = np.array([10 + step % 4])
                if not _contains(soa, fresh)[0]:
                    soa.fill_batch(ROW_LEN, fresh)
                    _replay_fill(reference, fresh)
            else:
                probe = rng.integers(0, 14, size=9)
                hit_mask, _ = _probe(soa, probe, 8)
                assert list(hit_mask) == _replay_probe(reference, probe)
            compactions += soa._log_tail < tail_before
            _assert_same_observables(reference, soa)
        assert compactions >= 5
        assert soa._log.size <= 128  # bounded by the live set, not the touch count


class TestPromotionCertificate:
    def _scalar_replay_diverges(self, soa_factory, hit_rows, promoted_rows, row_len):
        """Brute force: replay get/put row by row on a copy and report
        whether any probe's outcome differs from the one-shot plan (hits
        stay hits) — the condition the certificate must detect."""
        replay = soa_factory()
        diverged = False
        # Promoted rows walk first here, so their evictions precede the hits;
        # the certificate is order-blind, hence must cover the worst order.
        for key in promoted_rows:
            assert replay.get(int(key)) is None
            replay.put(int(key), row_len)
        for key in hit_rows:
            diverged |= replay.get(int(key)) is None
        return diverged

    def test_certificate_matches_brute_force_replay(self):
        rng = make_rng(0, "soa-test", "certificate")
        row_len, overhead = 8, 8
        hazards = clears = 0
        for trial in range(300):
            capacity = int(rng.integers(4, 20)) * (row_len + overhead)
            resident = rng.permutation(40)[: int(rng.integers(0, 22))]

            def build():
                cache = SoALRUCache(capacity, per_item_overhead_bytes=overhead)
                for key in resident:
                    cache.put(int(key), row_len)
                return cache

            soa = build()
            present = np.flatnonzero(_contains(soa, np.arange(40)))
            absent = np.arange(40, 80)
            hit_rows = rng.permutation(present)[: int(rng.integers(0, present.size + 1))]
            promoted_rows = absent[: int(rng.integers(0, 16))]
            before = (list(soa.keys()), soa.stats.cpu_seconds, soa.used_bytes)
            hazard = soa.promotion_hazard(
                soa.lookup_slots(hit_rows), promoted_rows.size, row_len
            )
            assert (list(soa.keys()), soa.stats.cpu_seconds, soa.used_bytes) == before
            diverges = self._scalar_replay_diverges(build, hit_rows, promoted_rows, row_len)
            # Exact on eviction hazards; additionally conservative when the
            # fills alone outgrow the cache and would evict one another.
            overflows = promoted_rows.size * (row_len + overhead) > capacity
            assert hazard == (diverges or overflows), (trial, hazard, diverges, overflows)
            hazards += hazard
            clears += not hazard
        assert hazards > 30 and clears > 30

    def test_row_that_never_fits_is_rejected_not_a_hazard(self):
        # A fill that can never be admitted changes nothing a later probe can
        # see, so it is no hazard; the ordered probe rejects it as put does.
        reference, soa = _pair(capacity=4 * 16, overhead=8)
        for cache in (reference, soa):
            cache.put(101, ROW_LEN)
        keys = np.array([2, 7, 1, 9])
        promote_mask = np.array([False, True, False, True])
        assert not soa.promotion_hazard(np.empty(0, dtype=np.int64), 2, 64)
        hit_mask, admitted = _probe(soa, keys, 64, promote_mask)
        assert admitted == 0 and not hit_mask.any()
        assert _replay_probe(reference, keys, 64, promote_mask) == [False] * 4
        assert soa.stats.rejected_inserts == 2 and soa.stats.evictions == 0
        assert _holds(soa, 101)
        _assert_same_observables(reference, soa)

    def test_cleared_batch_replays_exactly_in_any_interleaving(self):
        # With the certificate clear, the ordered batch op equals the scalar
        # walk whatever the positions of hits and promoted rows.
        rng = make_rng(0, "soa-test", "promotion-order")
        checked = 0
        for _ in range(200):
            reference, soa = _pair(capacity=12 * 16, overhead=8)
            resident = rng.permutation(30)[:12]
            for cache in (reference, soa):
                for key in resident:
                    cache.put(int(key), ROW_LEN)
            keys = rng.permutation(60)[: int(rng.integers(2, 16))]
            present = _contains(soa, keys)
            promote_mask = ~present & (rng.random(keys.size) < 0.8)
            if soa.promotion_hazard(soa.lookup_slots(keys), int(promote_mask.sum()), 8):
                continue
            hit_mask, _ = _probe(soa, keys, 8, promote_mask)
            assert list(hit_mask) == _replay_probe(reference, keys, 8, promote_mask)
            assert list(hit_mask) == list(present)
            _assert_same_observables(reference, soa)
            checked += 1
        assert checked > 50
