"""Tests for the simulated SM device."""

import numpy as np
import pytest

from repro.sim.state import COUNTER, QUEUE, record, reset
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
    def test_lba_out_of_range_rejected(self):
        device = _make_device(capacity=BLOCK_SIZE * 4)
        with pytest.raises(IndexError):
            device.load(4, 1)
        with pytest.raises(IndexError):
            device.check_lbas(np.array([0, 100]))
        device.check_lbas(np.array([0, 3]))

    def test_num_blocks_derived_from_capacity(self):
        device = _make_device(capacity=BLOCK_SIZE * 10)
        assert device.num_blocks == 10

    def test_write_stats_accumulate(self):
        device = _make_device()
        device.load(0, 2)
        device.load(5, 1)
        assert device.stats.writes == 3
        assert device.stats.bytes_written == 3 * BLOCK_SIZE


class TestWriteBlocks:
    """``load`` counts a table load: one whole-block write per block."""

    def test_out_of_range_rejected_before_anything_is_written(self):
        device = _make_device(capacity=BLOCK_SIZE * 8)
        with pytest.raises(IndexError):
            device.load(6, 3)
        with pytest.raises(IndexError):
            device.load(-1, 2)
        assert device.stats.writes == 0
        device.load(6, 2)  # the last two blocks fit
        assert device.stats.writes == 2

    def test_wrong_shape_or_dtype_rejected(self):
        device = _make_device()
        with pytest.raises(ValueError, match="non-negative"):
            device.load(0, -1)
        device.load(0, 0)
        assert device.stats.writes == 0 and device.stats.bytes_written == 0


class TestDeviceReadTiming:
    def test_read_returns_requested_data_and_positive_latency(self):
        device = _make_device()
        completion, transferred = device.schedule_read(
            0, _single_range_sgl(0, 256), arrival_time=0.0
        )
        assert completion > 0.0
        assert transferred >= 256

    def test_sub_block_read_transfers_less_than_full_block(self):
        device = _make_device()
        _, with_sub = device.schedule_read(0, _single_range_sgl(0, 128), 0.0, True)
        _, without_sub = device.schedule_read(0, _single_range_sgl(0, 128), 0.0, False)
        assert with_sub < without_sub
        assert without_sub == BLOCK_SIZE

    def test_unloaded_latency_close_to_base_latency(self):
        device = _make_device(optane_ssd_spec, capacity=10 * GB)
        completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
        assert completion < 5 * device.spec.base_read_latency

    def test_latency_grows_when_saturated(self):
        device = _make_device(nand_flash_spec, capacity=1 * GB, seed=1)
        # Submit a large burst at t=0: the queue builds and the last IOs see
        # much higher latency than the first.
        completions = []
        for _ in range(2000):
            completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
            completions.append(completion)
        assert completions[-1] > completions[0] * 2

    def test_throughput_capped_at_max_iops(self):
        device = _make_device(nand_flash_spec, capacity=1 * GB)
        count = 5000
        last_completion = 0.0
        for _ in range(count):
            completion, _ = device.schedule_read(0, _single_range_sgl(0, 128), 0.0)
            last_completion = max(last_completion, completion)
        achieved_iops = count / last_completion
        assert achieved_iops <= device.spec.max_read_iops * 1.05

    def test_arrival_time_respected(self):
        device = _make_device()
        completion, _ = device.schedule_read(0, _single_range_sgl(0, 64), arrival_time=1.0)
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


def _read_batch(device, count, start_time=0.0, transferred=128):
    """One ``read_batch`` call of ``count`` IOs of 128 requested bytes each,
    with no queue-depth gate; returns the completion times."""
    sizes = np.full(count, transferred, dtype=np.int64)
    completions, throttled = device.read_batch(start_time, sizes, 128 * count)
    assert throttled == 0  # no gates were passed
    return completions


class TestReadBatch:
    """One ``read_batch`` call replays per-IO ``schedule_read`` timing bit for bit."""

    def _scalar_and_batched(self, spec_factory, groups, seed=0):
        """``groups`` is ``[(start_time, count), ...]``: one ``read_batch``
        call per group on one device, ``count`` scalar reads on the other."""
        scalar = _make_device(spec_factory, capacity=1 * GB, seed=seed)
        batched = _make_device(spec_factory, capacity=1 * GB, seed=seed)
        scalar_times, batched_times = [], []
        # The single-entry SGL for (0, 128) transfers its DWORD-aligned span.
        transferred = _single_range_sgl(0, 128).transferred_bytes(True)
        for start_time, count in groups:
            for _ in range(count):
                completion, _ = scalar.schedule_read(0, _single_range_sgl(0, 128), start_time)
                scalar_times.append(completion)
            batched_times += _read_batch(batched, count, start_time, transferred)
        return scalar, batched, scalar_times, batched_times

    @pytest.mark.parametrize("spec_factory", [nand_flash_spec, optane_ssd_spec])
    def test_completions_channels_and_stats_match_scalar(self, spec_factory):
        groups = [(0.0, 2), (1e-6, 1), (5e-5, 2), (2e-4, 1)] * 30
        scalar, batched, scalar_times, batched_times = self._scalar_and_batched(
            spec_factory, groups
        )
        assert batched_times == scalar_times
        assert batched.channel_free.tolist() == scalar.channel_free.tolist()
        assert batched.stats == scalar.stats

    def test_tail_rng_stream_identical_to_scalar_draws(self):
        # nand has tail_latency_probability=2e-3: over 3000 IOs both paths
        # must hit the same tail events and leave the same PCG64 state.
        scalar, batched, scalar_times, batched_times = self._scalar_and_batched(
            nand_flash_spec, [(0.0, 3000)], seed=3
        )
        assert scalar.stats.tail_events > 0
        assert batched_times == scalar_times
        assert batched.stats.tail_events == scalar.stats.tail_events
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_tail_free_device_draws_nothing_from_the_stream(self):
        # dimm 3DXP has tail_latency_probability=0, and an empty batch has
        # nothing to draw for: neither may advance the RNG (the scalar path
        # skips the draw in exactly these cases).
        from repro.storage import dimm_3dxp_spec

        no_tail = _make_device(dimm_3dxp_spec)
        before = no_tail.rng.bit_generator.state
        _read_batch(no_tail, 8)
        assert no_tail.stats.reads == 8
        assert no_tail.rng.bit_generator.state == before

        tail_prone = _make_device(nand_flash_spec)
        before = tail_prone.rng.bit_generator.state
        assert _read_batch(tail_prone, 0) == []
        assert tail_prone.stats.reads == 0
        assert tail_prone.rng.bit_generator.state == before


class TestReadRowsNdarray:
    def test_bad_lba_rejected(self):
        device = _make_device(capacity=BLOCK_SIZE * 4)
        with pytest.raises(IndexError):
            device.check_lbas(np.array([0, 4], dtype=np.int64))
        with pytest.raises(IndexError):
            device.check_lbas(np.array([-1], dtype=np.int64))
        device.check_lbas(np.zeros(0, dtype=np.int64))


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
