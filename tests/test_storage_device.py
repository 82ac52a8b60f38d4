"""Tests for the simulated SM device."""

import numpy as np
import pytest

from repro.sim.state import COUNTER, QUEUE, RUN_ROLES, record, reset
from repro.sim.units import BLOCK_SIZE, GB
from repro.storage import (
    ScatterGatherList,
    SimulatedDevice,
    nand_flash_spec,
    optane_ssd_spec,
)


def _make_device(spec_factory=nand_flash_spec, capacity=1 * GB, seed=0):
    return SimulatedDevice(spec_factory(capacity), seed=seed)


def _single_range_sgl(offset, length):
    sgl = ScatterGatherList()
    sgl.add(offset, length)
    return sgl


class TestDeviceData:
    def test_read_returns_written_bytes(self):
        device = _make_device()
        payload = bytes(range(64))
        device.write_block(3, payload, offset=128)
        assert device.read_block_data(3, 128, 64) == payload

    def test_unwritten_blocks_read_as_zeros(self):
        device = _make_device()
        assert device.read_block_data(7, 0, 16) == bytes(16)

    def test_write_beyond_block_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError):
            device.write_block(0, bytes(10), offset=BLOCK_SIZE - 4)

    def test_lba_out_of_range_rejected(self):
        device = _make_device(capacity=BLOCK_SIZE * 4)
        with pytest.raises(IndexError):
            device.write_block(4, b"x")
        with pytest.raises(IndexError):
            device.read_block_data(100)

    def test_num_blocks_derived_from_capacity(self):
        device = _make_device(capacity=BLOCK_SIZE * 10)
        assert device.num_blocks == 10

    def test_write_stats_accumulate(self):
        device = _make_device()
        device.write_block(0, bytes(100))
        device.write_block(1, bytes(50))
        assert device.stats.writes == 2
        assert device.stats.bytes_written == 150


class TestWriteBlocks:
    """``write_blocks`` is ``write_block`` per row of the matrix, faster."""

    @staticmethod
    def _blocks(count, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(count, BLOCK_SIZE), dtype=np.uint8)

    @staticmethod
    def _per_block(device, first_lba, blocks):
        for offset, block in enumerate(blocks):
            device.write_block(first_lba + offset, block.tobytes())

    @staticmethod
    def _image(device, lbas):
        return [device.read_block_data(lba) for lba in lbas]

    def test_matches_per_block_writes_growing_from_an_empty_store(self):
        batched, scalar = _make_device(), _make_device()
        for first_lba, count in ((5, 37), (100, 1), (101, 300)):
            blocks = self._blocks(count, seed=first_lba)
            batched.write_blocks(first_lba, blocks)
            self._per_block(scalar, first_lba, blocks)
        lbas = range(0, 410)
        assert self._image(batched, lbas) == self._image(scalar, lbas)
        assert batched.stats == scalar.stats
        assert batched.stats.writes == 338
        assert batched.stats.bytes_written == 338 * BLOCK_SIZE
        # Right-sized: one slot per written block plus the zero image.
        assert batched._block_store.shape[0] == 339

    def test_overwrites_existing_lbas(self):
        batched, scalar = _make_device(), _make_device()
        for device in (batched, scalar):
            device.write_block(12, bytes([9] * 64), offset=32)
            device.write_block(3, bytes([7] * BLOCK_SIZE))
        blocks = self._blocks(6, seed=1)
        batched.write_blocks(10, blocks)  # LBA 12 already holds data
        self._per_block(scalar, 10, blocks)
        lbas = range(0, 20)
        assert self._image(batched, lbas) == self._image(scalar, lbas)
        assert batched.read_block_data(12) == blocks[2].tobytes()
        assert batched.read_block_data(3) == bytes([7] * BLOCK_SIZE)
        assert batched.stats == scalar.stats
        assert batched._block_slots == scalar._block_slots

    def test_rows_gather_back_through_the_batched_read(self):
        device = _make_device()
        blocks = self._blocks(8, seed=2)
        device.write_blocks(20, blocks)
        lbas = np.array([27, 20, 23, 99])
        rows = device.read_rows_ndarray(lbas, np.array([0, 64, 4000, 8]), 96)
        assert rows[0].tobytes() == blocks[7, :96].tobytes()
        assert rows[1].tobytes() == blocks[0, 64:160].tobytes()
        assert rows[2].tobytes() == blocks[3, 4000:4096].tobytes()
        assert rows[3].tobytes() == bytes(96)

    def test_out_of_range_rejected_before_anything_is_written(self):
        device = _make_device(capacity=BLOCK_SIZE * 8)
        with pytest.raises(IndexError):
            device.write_blocks(6, self._blocks(3))
        with pytest.raises(IndexError):
            device.write_blocks(-1, self._blocks(2))
        assert device.stats.writes == 0
        assert device._block_slots == {}

    def test_wrong_shape_or_dtype_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError, match="uint8 matrix"):
            device.write_blocks(0, np.zeros((2, BLOCK_SIZE - 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="uint8 matrix"):
            device.write_blocks(0, np.zeros(BLOCK_SIZE, dtype=np.uint8))
        with pytest.raises(ValueError, match="uint8 matrix"):
            device.write_blocks(0, np.zeros((2, BLOCK_SIZE), dtype=np.float32))
        device.write_blocks(0, np.zeros((0, BLOCK_SIZE), dtype=np.uint8))
        assert device.stats.writes == 0


class TestDeviceReadTiming:
    def test_read_returns_requested_data_and_positive_latency(self):
        device = _make_device()
        device.write_block(0, bytes([7] * 256))
        data, completion, transferred = device.schedule_read(
            0, _single_range_sgl(0, 256), arrival_time=0.0
        )
        assert data == bytes([7] * 256)
        assert completion > 0.0
        assert transferred >= 256

    def test_sub_block_read_transfers_less_than_full_block(self):
        device = _make_device()
        _, _, with_sub = device.schedule_read(0, _single_range_sgl(0, 128), 0.0, True)
        _, _, without_sub = device.schedule_read(0, _single_range_sgl(0, 128), 0.0, False)
        assert with_sub < without_sub
        assert without_sub == BLOCK_SIZE

    def test_unloaded_latency_close_to_base_latency(self):
        device = _make_device(optane_ssd_spec, capacity=10 * GB)
        _, completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        assert completion < 5 * device.spec.base_read_latency

    def test_latency_grows_when_saturated(self):
        device = _make_device(nand_flash_spec, capacity=1 * GB, seed=1)
        # Submit a large burst at t=0: the queue builds and the last IOs see
        # much higher latency than the first.
        completions = []
        for _ in range(2000):
            _, completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
            completions.append(completion)
        assert completions[-1] > completions[0] * 2

    def test_throughput_capped_at_max_iops(self):
        device = _make_device(nand_flash_spec, capacity=1 * GB)
        count = 5000
        last_completion = 0.0
        for _ in range(count):
            _, completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
            last_completion = max(last_completion, completion)
        achieved_iops = count / last_completion
        assert achieved_iops <= device.spec.max_read_iops * 1.05

    def test_arrival_time_respected(self):
        device = _make_device()
        _, completion, _ = device.schedule_read(0, _single_range_sgl(0, 64), arrival_time=1.0)
        assert completion > 1.0

    def test_negative_arrival_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError):
            device.schedule_read(0, _single_range_sgl(0, 64), arrival_time=-1.0)

    def test_read_stats_and_amplification(self):
        device = _make_device()
        device.schedule_read(0, _single_range_sgl(0, 128), 0.0, sub_block_enabled=False)
        assert device.stats.reads == 1
        assert device.stats.bytes_requested == 128
        assert device.stats.bytes_transferred == BLOCK_SIZE
        assert device.stats.read_amplification == pytest.approx(BLOCK_SIZE / 128)

    def test_reset_stats(self):
        device = _make_device()
        record(device)
        device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        reset(device, {COUNTER})
        assert device.stats.reads == 0

    def test_nand_exhibits_tail_latency_events(self):
        device = _make_device(nand_flash_spec, capacity=1 * GB, seed=3)
        for _ in range(5000):
            device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        assert device.stats.tail_events > 0


def _schedule_batch(device, arrivals, requested=128, transferred=128):
    """One whole-batch session: open, schedule every IO, finish."""
    session = device.schedule_read_batch(len(arrivals))
    sizes = np.full(len(arrivals), transferred, dtype=np.int64)
    _, completions, throttled = session.schedule(arrivals, sizes, requested * len(arrivals))
    session.finish()
    assert throttled == 0  # no gates were passed
    return session, completions


class TestBatchReadScheduler:
    """A schedule_read_batch session replays scalar timing bit for bit."""

    def _scalar_and_batched(self, spec_factory, count, arrivals=None, seed=0):
        scalar = _make_device(spec_factory, capacity=1 * GB, seed=seed)
        batched = _make_device(spec_factory, capacity=1 * GB, seed=seed)
        arrivals = arrivals if arrivals is not None else [0.0] * count
        scalar_times = []
        for arrival in arrivals:
            _, completion, _ = scalar.schedule_read(0, _single_range_sgl(0, 128), arrival)
            scalar_times.append(completion)
        # The single-entry SGL for (0, 128) transfers its DWORD-aligned span.
        transferred = _single_range_sgl(0, 128).transferred_bytes(True)
        _, batched_times = _schedule_batch(batched, arrivals, transferred=transferred)
        return scalar, batched, scalar_times, batched_times

    @pytest.mark.parametrize("spec_factory", [nand_flash_spec, optane_ssd_spec])
    def test_completions_channels_and_stats_match_scalar(self, spec_factory):
        arrivals = [0.0, 0.0, 1e-6, 5e-5, 5e-5, 2e-4] * 30
        scalar, batched, scalar_times, batched_times = self._scalar_and_batched(
            spec_factory, len(arrivals), arrivals
        )
        assert batched_times == scalar_times
        assert batched.channel_free.tolist() == scalar.channel_free.tolist()
        assert batched.stats == scalar.stats

    def test_tail_rng_stream_identical_to_scalar_draws(self):
        # nand has tail_latency_probability=2e-3: over 3000 IOs both paths
        # must hit the same tail events and leave the same PCG64 state.
        scalar, batched, scalar_times, batched_times = self._scalar_and_batched(
            nand_flash_spec, 3000, seed=3
        )
        assert scalar.stats.tail_events > 0
        assert batched_times == scalar_times
        assert batched.stats.tail_events == scalar.stats.tail_events
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_tail_free_device_draws_nothing_from_the_stream(self):
        # dimm 3DXP has tail_latency_probability=0, and a zero-count session
        # has nothing to draw for: neither may advance the RNG (the scalar
        # path skips the draw in exactly these cases).
        from repro.storage import dimm_3dxp_spec

        no_tail = _make_device(dimm_3dxp_spec)
        before = no_tail.rng.bit_generator.state
        _schedule_batch(no_tail, [0.0] * 8)
        assert no_tail.stats.reads == 8
        assert no_tail.rng.bit_generator.state == before

        tail_prone = _make_device(nand_flash_spec)
        before = tail_prone.rng.bit_generator.state
        _schedule_batch(tail_prone, [])
        assert tail_prone.stats.reads == 0
        assert tail_prone.rng.bit_generator.state == before

    def test_finish_is_idempotent(self):
        device = _make_device()
        session, _ = _schedule_batch(device, [0.0] * 4)
        stats_after = device.stats.reads
        session.finish()
        assert device.stats.reads == stats_after == 4

    def test_negative_count_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError):
            device.schedule_read_batch(-1)

    def test_a_session_schedules_exactly_its_ios_once(self):
        device = _make_device()
        session = device.schedule_read_batch(4)
        sizes = np.full(4, 128, dtype=np.int64)
        with pytest.raises(ValueError):
            session.schedule([0.0] * 3, sizes[:3], 3 * 128)
        session.schedule([0.0] * 4, sizes, 4 * 128)
        with pytest.raises(ValueError):  # the tail draws are spent
            session.schedule([0.0] * 4, sizes, 4 * 128)
        session.finish()
        assert device.stats.reads == 4


class TestReadRowsNdarray:
    def test_gather_matches_per_row_reads(self):
        device = _make_device()
        device.write_block(2, bytes(range(200)), offset=0)
        device.write_block(5, bytes(reversed(range(200))), offset=100)
        lbas = np.array([2, 5, 2, 9], dtype=np.int64)  # lba 9 never written
        offsets = np.array([0, 100, 64, 0], dtype=np.int64)
        matrix = device.read_rows_ndarray(lbas, offsets, 64)
        assert matrix.shape == (4, 64)
        for row, (lba, offset) in enumerate(zip(lbas, offsets)):
            assert matrix[row].tobytes() == device.read_block_data(int(lba), int(offset), 64)

    @staticmethod
    def _assert_gather_equals_per_row_reads(device, lbas, offsets, length):
        matrix = device.read_rows_ndarray(np.array(lbas), np.array(offsets), length)
        assert matrix.shape == (len(lbas), length) and matrix.dtype == np.uint8
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        for row, (lba, offset) in enumerate(zip(lbas, offsets)):
            expected = device.read_block_data(lba, offset, length)
            assert matrix[row].tobytes() == expected, (lba, offset)

    def test_sparse_out_of_order_overwritten_and_never_written_lbas(self):
        device = _make_device(capacity=BLOCK_SIZE * 1000)
        rng = np.random.default_rng(5)
        for lba in (700, 3, 512, 40, 41, 999):  # written out of order, far apart
            device.write_block(lba, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8).tobytes())
        device.write_block(40, bytes([7] * 300), offset=1000)  # overwrites part of 40
        device.write_blocks(511, rng.integers(0, 256, (3, BLOCK_SIZE), dtype=np.uint8))  # and 512
        lbas = [999, 3, 40, 40, 0, 513, 998, 512, 700, 2, 41, 511, 4]
        offsets = [0, 4000, 1000, 904, 8, 1, 4000, 2048, 77, 0, 3, 5, 96]
        self._assert_gather_equals_per_row_reads(device, lbas, offsets, 96)
        # Never-written LBAs -- below, between and above the written ones --
        # read as zeros.
        gaps = device.read_rows_ndarray(np.array([0, 2, 4, 998]), np.zeros(4, dtype=np.int64), 64)
        assert not gaps.any()

    def test_lba_above_every_written_one(self):
        device = _make_device(capacity=BLOCK_SIZE * 100)
        device.write_block(10, bytes([1] * 64))
        self._assert_gather_equals_per_row_reads(device, [99, 10, 11, 99], [0, 0, 0, 4032], 64)

    def test_empty_device_and_empty_batch(self):
        device = _make_device(capacity=BLOCK_SIZE * 100)
        self._assert_gather_equals_per_row_reads(device, [0, 99, 50], [0, 8, 4000], 96)
        none = np.zeros(0, dtype=np.int64)
        assert device.read_rows_ndarray(none, none, 32).shape == (0, 32)
        device.write_block(5, bytes([3] * 32))
        assert device.read_rows_ndarray(none, none, 32).shape == (0, 32)

    def test_a_write_after_a_read_rebuilds_the_index(self):
        device = _make_device(capacity=BLOCK_SIZE * 100)
        device.write_block(20, bytes([1] * 128))
        lbas, offsets = [20, 21, 5, 60, 61, 62], [0, 0, 0, 0, 0, 0]
        self._assert_gather_equals_per_row_reads(device, lbas, offsets, 128)  # builds the index
        device.write_block(5, bytes([2] * 128))  # a new LBA below the indexed ones
        self._assert_gather_equals_per_row_reads(device, lbas, offsets, 128)
        assert device.read_rows_ndarray(np.array([5]), np.array([0]), 128).tolist() == [[2] * 128]
        device.write_blocks(60, np.full((3, BLOCK_SIZE), 9, dtype=np.uint8))  # grows the store
        self._assert_gather_equals_per_row_reads(device, lbas, offsets, 128)
        assert (device.read_rows_ndarray(np.array([62, 60]), np.array([0, 4000]), 96) == 9).all()
        device.write_block(20, bytes([4] * 128))  # overwrite in place
        self._assert_gather_equals_per_row_reads(device, lbas, offsets, 128)
        device.write_blocks(19, np.full((3, BLOCK_SIZE), 8, dtype=np.uint8))  # 20 again, 19/21 new
        self._assert_gather_equals_per_row_reads(device, lbas + [19], offsets + [0], 128)

    def test_the_index_is_derived_from_the_written_blocks_only(self):
        # The one piece of mutable state the gather added: it mirrors
        # _block_slots (which a backend's restore_pristine keeps, as a
        # construction-time product), whatever was read in between.
        device = _make_device(capacity=BLOCK_SIZE * 100)
        for lba in (30, 7, 55):
            device.write_block(lba, bytes([lba] * 16))
        record(device)
        assert device._slot_index is None
        device.read_rows_ndarray(np.array([7]), np.array([0]), 16)
        written, slots = device._slot_index
        assert written.tolist() == [7, 30, 55, device.num_blocks]
        assert slots.tolist() == [device._block_slots[7], device._block_slots[30],
                                  device._block_slots[55], 0]
        device.schedule_read(7, _single_range_sgl(0, 16), 0.0)
        reset(device, RUN_ROLES)
        assert device._slot_index[0] is written  # reads and resets leave it alone
        assert device.stats.writes == 3  # as built: the writes are kept
        device.write_block(8, b"x")
        assert device._slot_index is None

    def test_bad_lba_rejected(self):
        device = _make_device(capacity=BLOCK_SIZE * 4)
        with pytest.raises(IndexError):
            device.read_rows_ndarray(
                np.array([0, 4], dtype=np.int64), np.zeros(2, dtype=np.int64), 16
            )

    def test_range_beyond_block_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError):
            device.read_rows_ndarray(
                np.zeros(1, dtype=np.int64),
                np.array([BLOCK_SIZE - 8], dtype=np.int64),
                64,
            )
        none = np.zeros(0, dtype=np.int64)
        for length in (-1, BLOCK_SIZE + 1):  # whatever the batch holds
            with pytest.raises(ValueError):
                device.read_rows_ndarray(none, none, length)
        whole = device.read_rows_ndarray(np.array([0, 7]), np.zeros(2, dtype=np.int64), BLOCK_SIZE)
        assert whole.shape == (2, BLOCK_SIZE)
        assert device.read_rows_ndarray(np.array([3]), np.array([BLOCK_SIZE]), 0).shape == (1, 0)


class TestDeviceResetSplit:
    def test_reset_stats_leaves_channels_busy(self):
        device = _make_device()
        record(device)
        device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        busy_before = device.channel_free.copy()
        reset(device, {COUNTER})
        assert device.stats.reads == 0
        assert device.channel_free.tolist() == busy_before.tolist()

    def test_reset_queues_frees_channels_and_keeps_stats(self):
        device = _make_device()
        record(device)
        device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        assert (device.channel_free > 0.0).any()
        reset(device, {QUEUE})
        assert device.channel_free.tolist() == [0.0] * device.spec.internal_parallelism
        assert device.stats.reads == 1


class TestDeviceWriteTiming:
    def test_expected_latency_delegates_to_model(self):
        device = _make_device()
        assert device.expected_latency(0.0) >= device.spec.base_read_latency
