"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache, SoALRUCache, UnifiedRowCache
from repro.core import SoftwareDefinedMemory
from repro.core.pooled_cache import order_invariant_hash
from repro.dlrm.quantization import dequantize_rows, quantize_rows, quantized_row_bytes
from repro.hierarchy import DeviceTier, TierSpec
from repro.sim.units import BLOCK_SIZE
from repro.storage import BlockLayout, IOEngineConfig, ScatterGatherList
from repro.workload.locality import spatial_locality_ratio, temporal_locality_cdf

from helpers import small_model, small_sdm_config


class TestQuantizationProperties:
    @given(
        rows=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=96),
        bits=st.sampled_from([4, 8]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_quantisation_step(self, rows, dim, bits, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, size=(rows, dim)).astype(np.float32)
        recovered = dequantize_rows(quantize_rows(values, bits=bits), dim=dim, bits=bits)
        span = values.max(axis=1) - values.min(axis=1)
        step = span / ((1 << bits) - 1)
        error = np.abs(recovered - values).max(axis=1)
        assert np.all(error <= step + 1e-5)

    @given(
        dim=st.integers(min_value=1, max_value=512),
        bits=st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_bytes_always_larger_than_payload(self, dim, bits):
        size = quantized_row_bytes(dim, bits)
        assert size > dim // (8 // bits) - 1
        assert size >= 8


class TestOrderInvariantHashProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, indices):
        shuffled = list(indices)
        np.random.default_rng(0).shuffle(shuffled)
        assert order_invariant_hash(indices) == order_invariant_hash(shuffled)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_adding_an_element_changes_hash(self, indices, extra):
        assert order_invariant_hash(indices) != order_invariant_hash(indices + [extra])


class TestLRUCacheProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=1, max_value=120),
            ),
            min_size=1,
            max_size=200,
        ),
        capacity=st.integers(min_value=64, max_value=2048),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_invariant_under_arbitrary_insertions(self, operations, capacity):
        cache = LRUCache(capacity, per_item_overhead_bytes=8)
        for key, size in operations:
            cache.put(key, size)
            assert cache.used_bytes <= capacity
        # internal accounting matches the entries actually present
        recomputed = sum((cache.get(key) or 0) + 8 for key in list(cache.keys()))
        assert cache.used_bytes == recomputed

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=50)
    )
    @settings(max_examples=50, deadline=None)
    def test_get_after_put_returns_value_if_present(self, keys):
        cache = LRUCache(10_000)
        for key in keys:
            cache.put(key, len(str(key)))
        for key in set(keys):
            size = cache.get(key)
            assert size is None or size == len(str(key))

    # LRU inclusion: a cache holds the longest most-recent prefix of the
    # distinct keys that fits its budget, so a larger budget holds a superset
    # and every access that hits in the smaller cache hits in the larger.
    # The unified cache is two LRUs whose budgets both grow with its own.
    # Largest row per cache kind, so that no entry outgrows the smallest
    # budget drawn (32 B overhead; 56 B in the CPU-optimised share).
    _INCLUSION_ROWS = {"lru": 64, "soa": 64, "unified": 512}
    _INCLUSION_MIN_CAPACITY = {"lru": 96, "soa": 96, "unified": 2840}

    @staticmethod
    def _hit_flags(kind, trace, row_lens, capacity):
        """Serve ``trace`` as the tier chain does: probe each key, fill it
        on a miss.  Returns each access's hit flag."""
        flags = []
        if kind == "lru":
            cache = LRUCache(capacity)
            for key in trace:
                hit = cache.get(key) is not None
                if not hit:
                    cache.put(key, row_lens[key])
                flags.append(hit)
            return flags
        cache = SoALRUCache(capacity) if kind == "soa" else UnifiedRowCache(capacity)
        for key in trace:
            keys, row_len = np.array([key]), row_lens[key]
            slots = cache.lookup_slots(keys) if kind == "soa" else cache.lookup_batch(row_len, keys)
            (hit,) = cache.probe_run([(keys, slots, row_len)])[0].tolist()
            if not hit:
                cache.fill_batch(row_len, keys)
            flags.append(hit)
        return flags

    @pytest.mark.parametrize("kind", ["lru", "soa", "unified"])
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=300),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_never_decrease_as_capacity_grows(self, kind, trace, data):
        largest, smallest = self._INCLUSION_ROWS[kind], self._INCLUSION_MIN_CAPACITY[kind]
        row_lens = data.draw(
            st.lists(st.integers(min_value=1, max_value=largest), min_size=40, max_size=40)
        )
        capacity = data.draw(st.integers(min_value=smallest, max_value=8 * smallest))
        larger = capacity + data.draw(st.integers(min_value=1, max_value=8 * smallest))
        small = self._hit_flags(kind, trace, row_lens, capacity)
        large = self._hit_flags(kind, trace, row_lens, larger)
        assert all(hit_large for hit_small, hit_large in zip(small, large) if hit_small)
        assert sum(large) >= sum(small)


class TestBlockLayoutProperties:
    @given(
        num_rows=st.integers(min_value=1, max_value=3000),
        row_bytes=st.integers(min_value=9, max_value=BLOCK_SIZE),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_row_locatable_and_within_block(self, num_rows, row_bytes):
        layout = BlockLayout([64 * 1024 * 1024])
        layout.add_table("t", num_rows, row_bytes)
        for row in (0, num_rows // 2, num_rows - 1):
            location = layout.locate("t", row)
            assert 0 <= location.offset < BLOCK_SIZE
            assert location.offset + location.length <= BLOCK_SIZE
            assert location.length == row_bytes

    @given(
        num_rows=st.integers(min_value=1, max_value=500),
        row_bytes=st.integers(min_value=9, max_value=512),
    )
    @settings(max_examples=50, deadline=None)
    def test_distinct_rows_never_overlap(self, num_rows, row_bytes):
        layout = BlockLayout([64 * 1024 * 1024])
        layout.add_table("t", num_rows, row_bytes)
        sample = range(0, num_rows, max(num_rows // 20, 1))
        seen = set()
        for row in sample:
            location = layout.locate("t", row)
            key = (location.lba, location.offset)
            assert key not in seen
            seen.add(key)


    @given(
        tables=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=400),
                st.integers(min_value=9, max_value=BLOCK_SIZE),
            ),
            min_size=1,
            max_size=6,
        ),
        num_devices=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_map_one_to_one_into_their_extents_without_overlap(self, tables, num_devices):
        # Serving reads no row bytes, so nothing downstream would notice a
        # row laid over another: the layout itself must map every row of
        # every table to its own byte range inside its table's extent.
        layout = BlockLayout([16 * 1024 * 1024] * num_devices)  # fits 6 x 400 blocks
        for index, (num_rows, row_bytes) in enumerate(tables):
            layout.add_table(f"t{index}", num_rows, row_bytes)
        ranges = {device: [] for device in range(num_devices)}
        for index, (num_rows, row_bytes) in enumerate(tables):
            extent = layout.extent(f"t{index}")
            located = layout.locate_batch(f"t{index}", np.arange(num_rows))
            assert located.device_index == extent.device_index
            assert located.length == row_bytes
            assert located.lba.min() >= extent.first_lba
            assert located.lba.max() < extent.first_lba + extent.num_blocks
            assert located.offset.min() >= 0
            assert located.offset.max() + row_bytes <= BLOCK_SIZE
            for row in {0, num_rows // 2, num_rows - 1}:
                scalar = layout.locate(f"t{index}", row)
                assert (scalar.lba, scalar.offset) == (located.lba[row], located.offset[row])
            starts = located.lba * BLOCK_SIZE + located.offset
            ranges[extent.device_index].append(np.stack([starts, starts + row_bytes], axis=1))
        for device_ranges in ranges.values():
            if not device_ranges:
                continue
            spans = np.concatenate(device_ranges)
            spans = spans[np.argsort(spans[:, 0], kind="stable")]
            # Sorted by start, each range ends before the next begins: no two
            # rows of any tables share a byte.
            assert (spans[1:, 0] >= spans[:-1, 1]).all()

    @given(
        tables=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=300),
                st.sampled_from([24, 40, 72, 136, 264]),
            ),
            min_size=1,
            max_size=4,
        ),
        num_devices=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        sub_block=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_io_engine_requests_rows_times_row_bytes(self, tables, num_devices, seed, sub_block):
        tier = DeviceTier(
            TierSpec.from_value({"technology": "nand", "capacity": "12MiB", "devices": num_devices}),
            io_config=IOEngineConfig(sub_block_reads=sub_block),
        )
        rng = np.random.default_rng(seed)
        expected = 0
        for index, (num_rows, row_bytes) in enumerate(tables):
            tier.add_segment(f"t{index}", 0, num_rows, row_bytes, whole_table=True)
            rows = rng.integers(0, num_rows, size=int(rng.integers(1, 2 * num_rows + 1)))
            tier.read_rows_batch(f"t{index}", np.concatenate([np.arange(num_rows), rows]), 0.0)
            expected += (num_rows + rows.size) * row_bytes
        stats = tier.io_engine.stats
        assert stats.bytes_requested == expected
        assert tier.device_stats().bytes_requested == expected
        assert stats.bytes_transferred >= expected
        assert tier.stats.bytes_served == expected

    @given(
        fast_kib=st.integers(min_value=0, max_value=8),
        mid_kib=st.integers(min_value=1, max_value=48),
        num_rows=st.integers(min_value=64, max_value=320),
        num_user=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_row_segments_partition_the_stored_rows(
        self, fast_kib, mid_kib, num_rows, num_user
    ):
        model = small_model(num_user=num_user, num_item=1, num_rows=num_rows)
        sdm = SoftwareDefinedMemory(
            model,
            small_sdm_config(
                tiers=f"dram:{fast_kib}KiB,cxl:{mid_kib}KiB,nand:64MiB", split_rows=True
            ),
        )
        for name, state in sdm._sm_tables.items():
            decision = sdm.placement.for_table(name)
            segments = sorted(decision.segments, key=lambda segment: segment.start)
            # Contiguous from 0 to the stored row count: every stored row is
            # homed exactly once.
            assert segments[0].start == 0 and segments[-1].end == state.stored_rows
            assert all(a.end == b.start for a, b in zip(segments, segments[1:]))
            homes = decision.tiers_of_rows(np.arange(state.stored_rows))
            for segment in segments:
                assert (homes[segment.start : segment.end] == segment.tier).all()
                if segment.tier == 0:
                    continue
                # The device tier laid out exactly this segment.
                tier = sdm.tiers[segment.tier]
                assert (segment.start, segment.end) in {
                    (homed.start, homed.end) for homed in tier._segments[name]
                }
            for index, tier in enumerate(sdm.tiers[1:], start=1):
                homed = sum(s.end - s.start for s in tier._segments.get(name, []))
                assert homed == int((homes == index).sum())


class TestSGLProperties:
    @given(
        offset=st.integers(min_value=0, max_value=BLOCK_SIZE - 1),
        length=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=100, deadline=None)
    def test_sub_block_transfer_bounds(self, offset, length):
        assume(offset + length <= BLOCK_SIZE)
        sgl = ScatterGatherList()
        sgl.add(offset, length)
        transferred = sgl.transferred_bytes(sub_block_enabled=True)
        assert length <= transferred <= length + 8
        assert sgl.transferred_bytes(sub_block_enabled=False) == BLOCK_SIZE


class TestLocalityProperties:
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=500)
    )
    @settings(max_examples=60, deadline=None)
    def test_temporal_cdf_is_a_cdf(self, trace):
        unique_fraction, access_fraction = temporal_locality_cdf(trace)
        assert np.all(np.diff(access_fraction) >= -1e-12)
        assert access_fraction[-1] == pytest.approx(1.0)
        assert np.all((access_fraction > 0) & (access_fraction <= 1.0 + 1e-12))
        assert len(unique_fraction) == len(access_fraction)

    @given(
        trace=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=500),
        rows_per_block=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_spatial_ratio_bounded(self, trace, rows_per_block):
        ratio = spatial_locality_ratio(trace, rows_per_block)
        assert 0.0 < ratio <= 1.0
