"""Tests for the Zipf index generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlrm import Bags
from repro.workload import ZipfGenerator


class TestZipfGenerator:
    def test_samples_within_range(self):
        generator = ZipfGenerator(num_items=100, alpha=1.1, seed=0)
        samples = generator.sample(1000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_reproducible(self):
        a = ZipfGenerator(100, 1.1, seed=3).sample(50)
        b = ZipfGenerator(100, 1.1, seed=3).sample(50)
        np.testing.assert_array_equal(a, b)

    def test_skew_concentrates_accesses(self):
        generator = ZipfGenerator(1000, alpha=1.2, seed=0)
        samples = generator.sample(20_000)
        _, counts = np.unique(samples, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_10pct = counts[: max(len(counts) // 10, 1)].sum() / counts.sum()
        assert top_10pct > 0.5

    def test_higher_alpha_is_more_skewed(self):
        def top_10pct_share(alpha):
            samples = ZipfGenerator(1000, alpha=alpha, seed=0).sample(20_000)
            counts = np.sort(np.bincount(samples, minlength=1000))[::-1]
            return counts[:100].sum() / counts.sum()

        assert top_10pct_share(1.4) > top_10pct_share(0.6)

    def test_unique_sampling_has_no_duplicates(self):
        generator = ZipfGenerator(200, 1.05, seed=0)
        samples = generator.sample(50, unique=True)
        assert len(set(samples.tolist())) == 50

    def test_unique_sampling_more_than_population_rejected(self):
        with pytest.raises(ValueError):
            ZipfGenerator(10, 1.0).sample(11, unique=True)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            ZipfGenerator(10, 1.0).sample(0)

    def test_invalid_constructor_args_rejected(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, 0.0)

    def test_shuffled_ids_scatter_popular_rows(self):
        """With id shuffling the hottest rows are not the low ids (this is
        what destroys spatial locality in Figure 5)."""
        generator = ZipfGenerator(10_000, 1.2, seed=0, shuffle_ids=True)
        samples = generator.sample(5000)
        values, counts = np.unique(samples, return_counts=True)
        hottest = values[np.argmax(counts)]
        assert hottest > 100  # overwhelmingly likely with shuffling

    def test_unshuffled_ids_put_hottest_first(self):
        generator = ZipfGenerator(10_000, 1.2, seed=0, shuffle_ids=False)
        samples = generator.sample(5000)
        values, counts = np.unique(samples, return_counts=True)
        assert values[np.argmax(counts)] < 10


class ReferenceZipf(ZipfGenerator):
    """The unbuffered NumPy rejection sampler the read-ahead one replaced:
    every call draws exactly its own ids straight from ``_rng``."""

    consumed = 0

    def _draw(self, count):
        self.consumed += count
        ranks = np.searchsorted(self._cdf, self._rng.random(count), side="left")
        return self._id_map[ranks].astype(np.int64)

    def sample_ids(self, count=1, unique=False):
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        if not unique:
            return self._draw(count).tolist()
        if count > self.num_items:
            raise ValueError(f"cannot draw {count} unique indices")
        chosen = np.empty(0, dtype=np.int64)
        while chosen.size < count:
            needed = count - chosen.size
            draws = self._draw(needed * 2 + 8)
            fresh = draws[~np.isin(draws, chosen)]
            _, first_at = np.unique(fresh, return_index=True)
            fresh = fresh[np.sort(first_at)]
            chosen = np.concatenate([chosen, fresh[:needed]])
        return chosen.tolist()


class CountingZipf(ZipfGenerator):
    """The shipped sampler, counting the ids each call takes off the stream
    (net of the ids a batched call returns to it)."""

    consumed = 0

    def _take(self, count):
        self.consumed += count
        return super()._take(count)

    def _untake(self, ids):
        self.consumed -= ids.size
        super()._untake(ids)


class TestReadAheadMatchesReference:
    @staticmethod
    def _pair(num_items, alpha, seed):
        return CountingZipf(num_items, alpha, seed=seed), ReferenceZipf(num_items, alpha, seed=seed)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_interleaved_calls_across_chunk_boundaries(self, seed):
        # ~60k ids: the 4096-id read-ahead buffer is refilled many times and
        # calls of every size straddle a refill, including one larger than
        # the buffer itself.
        shipped, reference = self._pair(5000, 1.05, seed)
        calls = [(count, count % 3 != 0) for count in range(1, 160)]
        calls += [(4095, False), (3, True), (4097, False), (40, True), (10_000, False)]
        for count, unique in calls:
            assert shipped.sample_ids(count, unique) == reference.sample_ids(count, unique)
            assert shipped.consumed == reference.consumed

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("count", [8, 7, 5])
    def test_forced_multi_round_draws(self, seed, count):
        # 8 skewed items: all (or nearly all) of them never show up in one
        # round of 2 * count + 8 draws, so the round loop runs.
        shipped, reference = self._pair(8, 1.6, seed)
        rounds = 0
        for _ in range(50):
            before = reference.consumed
            expected = reference.sample_ids(count, unique=True)
            rounds += reference.consumed - before > 2 * count + 8
            assert shipped.sample_ids(count, unique=True) == expected
            assert sorted(expected) == sorted(set(expected))
            assert shipped.consumed == reference.consumed
        assert count < 8 or rounds > 0

    def test_sample_is_the_ndarray_form_of_sample_ids(self):
        a, b = ZipfGenerator(300, 1.1, seed=5), ZipfGenerator(300, 1.1, seed=5)
        for count, unique in [(12, True), (50, False), (1, False)]:
            array = a.sample(count, unique=unique)
            assert array.dtype == np.int64
            assert array.tolist() == b.sample_ids(count, unique)

    def test_errors_do_not_consume_the_stream(self):
        shipped, reference = self._pair(10, 1.0, 3)
        with pytest.raises(ValueError):
            shipped.sample_ids(11, unique=True)
        with pytest.raises(ValueError):
            shipped.sample_ids(0)
        assert shipped.consumed == 0
        assert shipped.sample_ids(10, unique=True) == reference.sample_ids(10, unique=True)

    def test_read_ahead_buffer_stays_small(self):
        generator = ZipfGenerator(5000, 1.05, seed=0)
        for count in (10, 4000, 9000, 200, 4096):
            generator.sample_ids(count)
            assert generator._ahead.size <= 4096


def _reference_bags(reference, counts):
    """Per-bag reference draws, and the bags that needed a second round."""
    bags, short = [], []
    for position, count in enumerate(counts):
        before = reference.consumed
        bags.append(reference.sample_ids(count, unique=True))
        if reference.consumed - before > 2 * count + 8:
            short.append(position)
    return bags, short


def _assert_bags_match(shipped, reference, counts):
    expected, short = _reference_bags(reference, counts)
    bags = shipped.sample_unique_bags(counts)
    assert isinstance(bags, Bags) and bags.lengths.tolist() == list(counts)
    assert [bag.tolist() for bag in bags] == expected
    assert shipped.consumed == reference.consumed
    # The next draw starts where the reference's does.
    assert shipped.sample_ids(5) == reference.sample_ids(5)
    return short


class TestSampleUniqueBags:
    """The batched sampler against the per-bag reference.  The ledger's
    streams never need a second rejection round, so these small, skewed
    tables are what exercises the short-bag fallback."""

    COUNTS = [20, 3, 17, 1, 20, 12, 19, 5, 20, 8, 16, 20, 2, 18, 11]

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_second_rounds_match_the_reference(self, seed):
        shipped, reference = CountingZipf(24, 1.5, seed=seed), ReferenceZipf(24, 1.5, seed=seed)
        short = _assert_bags_match(shipped, reference, self.COUNTS)
        assert short  # the fallback really ran

    @pytest.mark.parametrize("seed", [0, 4])
    def test_chunk_boundaries_around_every_short_bag(self, seed):
        # Cut a chunk one id before, exactly at and one id after the end of
        # each short bag's first round: the short bag then ends its chunk,
        # starts the next one, or has later bags' ids to return.
        _, short = _reference_bags(ReferenceZipf(24, 1.5, seed=seed), self.COUNTS)
        window_ends = np.cumsum([2 * count + 8 for count in self.COUNTS])
        cuts = sorted({int(window_ends[bag]) + step for bag in short for step in (-1, 0, 1)})
        assert cuts
        for cut in cuts + [1]:
            shipped = CountingZipf(24, 1.5, seed=seed)
            shipped._CHUNK_IDS = cut
            _assert_bags_match(shipped, ReferenceZipf(24, 1.5, seed=seed), self.COUNTS)

    def test_unique_sample_ids_is_the_one_bag_case(self):
        a, b = ZipfGenerator(24, 1.5, seed=1), ZipfGenerator(24, 1.5, seed=1)
        for count in self.COUNTS:
            assert a.sample_ids(count, unique=True) == b.sample_unique_bags([count])[0].tolist()

    def test_empty_and_invalid_counts(self):
        shipped = CountingZipf(10, 1.0, seed=0)
        empty = shipped.sample_unique_bags([])
        assert len(empty) == 0 and empty.indices.size == 0
        for counts in ([3, 0], [11], [[1, 2]]):
            with pytest.raises(ValueError):
                shipped.sample_unique_bags(counts)
        assert shipped.consumed == 0

    @given(
        num_items=st.integers(min_value=1, max_value=40),
        alpha=st.floats(min_value=0.3, max_value=2.5),
        data=st.data(),
        chunk_ids=st.one_of(st.integers(min_value=1, max_value=300), st.just(1 << 16)),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_reference_for_any_chunking(self, num_items, alpha, data, chunk_ids, seed):
        counts = data.draw(
            st.lists(st.integers(min_value=1, max_value=num_items), max_size=30), label="counts"
        )
        shipped = CountingZipf(num_items, alpha, seed=seed)
        shipped._CHUNK_IDS = chunk_ids
        _assert_bags_match(shipped, ReferenceZipf(num_items, alpha, seed=seed), counts)
