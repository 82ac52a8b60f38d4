"""Tests for the io_uring-like IO engine.

``tests/golden/io_engine.json`` freezes what the per-request submission
loop this engine used to carry produced (completion times, stats, pool and
device state, the tail-latency RNG stream); ``tests/golden/regen.py``
rewrites it from the current tree.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import golden_encode

from repro.sim.state import COUNTER, QUEUE, record, reset
from repro.sim.units import BLOCK_SIZE, GB
from repro.storage import (
    BlockLayout,
    IOEngine,
    IOEngineConfig,
    IOMode,
    SimulatedDevice,
    nand_flash_spec,
    optane_ssd_spec,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "io_engine.json"


def _engine(config=None, num_devices=1, spec_factory=nand_flash_spec):
    devices = [SimulatedDevice(spec_factory(1 * GB), seed=i) for i in range(num_devices)]
    layout = BlockLayout([d.spec.capacity_bytes for d in devices])
    layout.add_table("t", num_rows=4096, row_bytes=128)
    engine = IOEngine(devices, config)
    record(engine)
    return engine, layout


def _batch(layout, rows):
    return layout.locate_batch("t", np.array(list(rows), dtype=np.int64))


def _submit(engine, layout, rows, start=0.0):
    """The completion time of each row's read, all submitted as one batch."""
    return engine.submit_row_reads_batch("t", _batch(layout, rows), start)


def _submit_one_by_one(engine, layout, rows, start=0.0):
    """The same IOs as one-entry batches (how the mmap reader submits its
    page faults); returns their completion times."""
    return [float(_submit(engine, layout, [row], start)[0]) for row in rows]


#: Queue-depth limits no test batch reaches: nothing is gated.
UNGATED = IOEngineConfig(max_outstanding_per_device=1 << 20, max_outstanding_per_table=1 << 20)


class TestIOEngineConfig:
    def test_polling_reduces_cpu_time_per_io(self):
        irq = IOEngineConfig(mode=IOMode.IRQ)
        polling = IOEngineConfig(mode=IOMode.POLLING)
        assert polling.cpu_time_per_io < irq.cpu_time_per_io

    def test_polling_iops_per_core_gain_is_50_percent(self):
        config = IOEngineConfig()
        gain = config.iops_per_core(IOMode.POLLING) / config.iops_per_core(IOMode.IRQ)
        assert gain == pytest.approx(1.5)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            IOEngineConfig(max_outstanding_per_device=0)
        with pytest.raises(ValueError):
            IOEngineConfig(cpu_time_per_io_irq=0)
        with pytest.raises(ValueError):
            IOEngineConfig(polling_iops_per_core_gain=-0.1)


class TestIOEngineSubmission:
    def test_requests_complete_with_data(self):
        engine, layout = _engine()
        location = layout.locate("t", 5)
        completions = _submit(engine, layout, [5])
        assert completions.shape == (1,) and completions[0] > 0.0
        assert engine.devices[0].stats.bytes_requested == location.length

    def test_stats_accumulate(self):
        engine, layout = _engine()
        _submit(engine, layout, range(20))
        assert engine.stats.ios_submitted == 20
        assert engine.stats.cpu_seconds > 0
        assert engine.stats.bytes_requested == 20 * 128

    def test_sub_block_reads_reduce_transfer(self):
        sub = IOEngineConfig(sub_block_reads=True)
        full = IOEngineConfig(sub_block_reads=False)
        engine_sub, layout_sub = _engine(sub)
        engine_full, layout_full = _engine(full)
        _submit(engine_sub, layout_sub, range(10))
        _submit(engine_full, layout_full, range(10))
        assert engine_sub.stats.bytes_transferred < engine_full.stats.bytes_transferred
        assert engine_full.stats.read_amplification == pytest.approx(BLOCK_SIZE / 128)

    def test_full_block_reads_pay_memcpy_overhead(self):
        full = IOEngineConfig(sub_block_reads=False)
        engine, layout = _engine(full)
        _submit(engine, layout, range(5))
        assert engine.stats.memcpy_seconds == pytest.approx(5 * BLOCK_SIZE / full.memcpy_bandwidth)

    def test_sub_block_reads_have_lower_latency(self):
        """The paper reports a 3-5% device latency reduction plus the saved
        host memcpy; the modelled effect must at least be directionally right."""
        sub_engine, sub_layout = _engine(IOEngineConfig(sub_block_reads=True))
        full_engine, full_layout = _engine(IOEngineConfig(sub_block_reads=False))
        # 50 IOs stay below the default queue-depth limits: all submit at 0.
        sub = _submit(sub_engine, sub_layout, range(50))
        full = _submit(full_engine, full_layout, range(50))
        assert sub.mean() < full.mean()

    def test_queue_depth_limit_throttles_submissions(self):
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=4)
        engine, layout = _engine(config)
        _submit(engine, layout, range(64))
        assert engine.stats.throttled_submissions > 0

    def test_throttling_delays_completions(self):
        config = IOEngineConfig(max_outstanding_per_device=2, max_outstanding_per_table=2)
        gated_engine, gated_layout = _engine(config)
        free_engine, free_layout = _engine(UNGATED)
        gated = _submit(gated_engine, gated_layout, range(32))
        free = _submit(free_engine, free_layout, range(32))
        assert (gated[:2] == free[:2]).all()
        assert gated.max() > free.max()

    def test_unknown_device_index_rejected(self):
        engine, layout = _engine()
        batch = dataclasses.replace(_batch(layout, [0, 1]), device_index=5)
        with pytest.raises(IndexError):
            engine.submit_row_reads_batch("t", batch, 0.0)
        # Rejected before anything was submitted.
        assert engine.stats.ios_submitted == 0
        assert engine.devices[0].stats.reads == 0

    def test_reset_stats_clears_everything(self):
        engine, layout = _engine()
        _submit(engine, layout, range(5))
        reset(engine, {COUNTER})
        assert engine.stats.ios_submitted == 0

    def test_engine_requires_devices(self):
        with pytest.raises(ValueError):
            IOEngine([], IOEngineConfig())

    def test_optane_batch_faster_than_nand_batch(self):
        nand_engine, nand_layout = _engine(spec_factory=nand_flash_spec)
        optane_engine, optane_layout = _engine(spec_factory=optane_ssd_spec)
        nand = _submit(nand_engine, nand_layout, range(100))
        optane = _submit(optane_engine, optane_layout, range(100))
        assert optane.max() < nand.max()


def _pool_multisets(engine):
    per_device = {
        index: sorted(pool) for index, pool in engine._outstanding_per_device.items()
    }
    per_table = {
        name: sorted(pool) for name, pool in engine._outstanding_per_table.items()
    }
    return per_device, per_table


# The submission workloads frozen in the golden file.
PARITY_ROWS = list(range(40)) + [3, 3, 17, 5]  # repeats share blocks
PARITY_CONFIGS = {
    "default": None,
    "throttled": IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2),
    "full-block": IOEngineConfig(sub_block_reads=False),
    "polling": IOEngineConfig(mode=IOMode.POLLING),
}
RNG_STREAM_ROWS = list(range(500)) * 2  # enough IOs for tail-latency draws


def _per_io(values):
    """A per-IO result array as JSON data; long ones as a digest."""
    encoded = golden_encode(values)
    if len(encoded) <= 64:
        return encoded
    return {"count": len(encoded), "sha256": hashlib.sha256(repr(encoded).encode()).hexdigest()}


def submission_record(rows, config=None, num_devices=2, waves=1):
    """Submit ``rows`` ``waves`` times (so the outstanding-IO pools carry
    state between batches) on a fresh engine; the last wave's per-IO
    results and the engine's and devices' end state as JSON data."""
    engine, layout = _engine(config, num_devices)
    start = 0.0
    for _ in range(waves):
        completions = _submit(engine, layout, rows, start)
        start += 1e-5
    per_device, per_table = _pool_multisets(engine)
    return golden_encode(
        {
            "completion_time": _per_io(completions),
            "engine_stats": engine.stats,
            "outstanding_per_device": per_device,
            "outstanding_per_table": per_table,
            "devices": [
                {
                    "stats": device.stats,
                    "channel_free": device.channel_free,
                    "rng_state": device.rng.bit_generator.state,
                }
                for device in engine.devices
            ],
        }
    )


def golden_records_from_tree():
    records = {
        name: submission_record(PARITY_ROWS, config, waves=3)
        for name, config in PARITY_CONFIGS.items()
    }
    records["rng-stream"] = submission_record(RNG_STREAM_ROWS, num_devices=1)
    return records


class TestBatchedSubmissionParity:
    """submit_row_reads_batch replays the frozen per-request loop bit for
    bit, and one batch equals the same IOs submitted one at a time."""

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_batched_matches_scalar(self, name):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        record = submission_record(PARITY_ROWS, PARITY_CONFIGS[name], waves=3)
        assert record.keys() == golden.keys()
        for key in golden:
            assert record[key] == golden[key], key

        batched, batched_layout = _engine(PARITY_CONFIGS[name], num_devices=2)
        single, single_layout = _engine(PARITY_CONFIGS[name], num_devices=2)
        for wave in range(3):
            completions = _submit(batched, batched_layout, PARITY_ROWS, wave * 1e-5)
            assert completions.tolist() == _submit_one_by_one(
                single, single_layout, PARITY_ROWS, wave * 1e-5
            )
        assert single.stats == batched.stats
        assert _pool_multisets(single) == _pool_multisets(batched)
        for device_a, device_b in zip(single.devices, batched.devices):
            assert device_a.stats == device_b.stats
            assert device_a.channel_free.tolist() == device_b.channel_free.tolist()
            assert device_a.rng.bit_generator.state == device_b.rng.bit_generator.state

    def test_tail_latency_rng_stream_matches(self):
        # Enough IOs on a tail-prone device that the batch's pre-draw must
        # consume the PCG64 stream exactly like one draw per IO did.
        golden = json.loads(GOLDEN_PATH.read_text())["rng-stream"]
        record = submission_record(RNG_STREAM_ROWS, num_devices=1)
        assert int(record["devices"][0]["stats"]["tail_events"]) > 0
        assert record["devices"] == golden["devices"]
        assert record == golden

    def test_empty_batch_is_a_no_op(self):
        engine, layout = _engine()
        assert _submit(engine, layout, []).shape == (0,)
        assert engine.stats.ios_submitted == 0

    def test_negative_start_time_rejected(self):
        engine, layout = _engine()
        with pytest.raises(ValueError):
            _submit(engine, layout, [0], -1.0)

    def test_unknown_device_index_rejected(self):
        engine, layout = _engine()
        for bad_index in (5, -1):
            batch = dataclasses.replace(_batch(layout, [0]), device_index=bad_index)
            with pytest.raises(IndexError):
                engine.submit_row_reads_batch("t", batch, 0.0)

    def test_invalid_range_rejected(self):
        engine, layout = _engine()
        batch = _batch(layout, [0])
        batch.offset[0] = BLOCK_SIZE - 4
        with pytest.raises(ValueError):
            engine.submit_row_reads_batch("t", batch, 0.0)


def _engine_state(engine):
    """Everything a submission may move, as comparable data."""
    return repr(
        (
            engine.stats,
            engine._outstanding_per_device,
            engine._outstanding_per_table,
            [
                (device.stats, device.channel_free.tolist(), device.rng.bit_generator.state)
                for device in engine.devices
            ],
        )
    )


class TestRejectedBatchLeavesNoTrace:
    """Validate first, touch state second: a rejected batch moves nothing --
    no counter, no pool (not even an empty one for a new table), no channel,
    no tail-latency draw."""

    @staticmethod
    def _used_engine():
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2)
        engine, layout = _engine(config, num_devices=2)
        _submit(engine, layout, range(24))  # pools, channels and the RNG have moved
        return engine, layout

    def _assert_rejected(self, engine, batch, start, error, table_name="t"):
        before = _engine_state(engine)
        with pytest.raises(error):
            engine.submit_row_reads_batch(table_name, batch, start)
        assert _engine_state(engine) == before

    @pytest.mark.parametrize("device_index", [2, -1])
    def test_bad_device_index(self, device_index):
        engine, layout = self._used_engine()
        batch = dataclasses.replace(_batch(layout, range(8)), device_index=device_index)
        self._assert_rejected(engine, batch, 0.0, IndexError)

    @pytest.mark.parametrize("lba", [-1, 1 << 40])
    def test_out_of_range_lba(self, lba):
        engine, layout = self._used_engine()
        batch = _batch(layout, range(8))
        batch.lba[5] = lba  # the IOs before it are fine
        self._assert_rejected(engine, batch, 0.0, IndexError, "never-seen")

    @pytest.mark.parametrize(
        "offset, length", [(BLOCK_SIZE - 4, 128), (-8, 128), (0, 0), (0, BLOCK_SIZE + 1)]
    )
    def test_out_of_block_range(self, offset, length):
        # Every row of a batch shares one length; the offset is the last row's.
        engine, layout = self._used_engine()
        batch = dataclasses.replace(_batch(layout, range(8)), length=length)
        batch.offset[7] = offset
        self._assert_rejected(engine, batch, 0.0, ValueError, "never-seen")

    def test_negative_start_time(self):
        engine, layout = self._used_engine()
        before = _engine_state(engine)
        with pytest.raises(ValueError, match="start_time"):
            engine.submit_row_reads_batch("t", _batch(layout, range(8)), -1e-9)
        assert _engine_state(engine) == before

    def test_the_same_batch_is_accepted_once_valid(self):
        engine, layout = self._used_engine()
        before = _engine_state(engine)
        engine.submit_row_reads_batch("t", _batch(layout, range(8)), 0.0)
        assert _engine_state(engine) != before


class TestGateEdgeCases:
    """Queue-depth gating edge cases, read off the completion times against
    the same rows on an engine that no gate limits; the gate behaves the
    same whether the IOs arrive as one batch or as one-entry batches."""

    def _gated(self, config, rows, batched):
        """``(gated_completions, ungated_completions, gated_engine)``."""
        engine, layout = _engine(config)
        free_engine, free_layout = _engine(UNGATED)
        free = _submit(free_engine, free_layout, rows).tolist()
        if batched:
            return _submit(engine, layout, rows).tolist(), free, engine
        return _submit_one_by_one(engine, layout, rows), free, engine

    @pytest.mark.parametrize("batched", [False, True])
    def test_submissions_below_limit_are_not_throttled(self, batched):
        config = IOEngineConfig(max_outstanding_per_device=8, max_outstanding_per_table=8)
        gated, free, engine = self._gated(config, range(8), batched)
        # Exactly `limit` submissions: the gate triggers only when the pool
        # already holds `limit` live IOs, so the batch fits untouched.
        assert gated == free
        assert engine.stats.throttled_submissions == 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_limit_reached_exactly_throttles_next_submission(self, batched):
        config = IOEngineConfig(max_outstanding_per_device=8, max_outstanding_per_table=8)
        gated, free, engine = self._gated(config, range(9), batched)
        assert gated[:8] == free[:8]
        assert gated[8] > free[8]
        assert engine.stats.throttled_submissions == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_table_limit_gates_when_tighter_than_device_limit(self, batched):
        config = IOEngineConfig(max_outstanding_per_device=64, max_outstanding_per_table=2)
        gated, free, engine = self._gated(config, range(12), batched)
        assert gated[:2] == free[:2]
        assert gated[2] > free[2]
        # The gate prunes every pool entry <= the gated time, so two IOs
        # completing at the identical instant free two slots at once — the
        # throttle count is below one-per-gated-submission but never zero.
        assert 0 < engine.stats.throttled_submissions <= 10

    @pytest.mark.parametrize("batched", [False, True])
    def test_interleaved_device_and_table_throttling(self, batched):
        config = IOEngineConfig(max_outstanding_per_device=3, max_outstanding_per_table=2)
        gated, free, engine = self._gated(config, range(16), batched)
        assert engine.stats.throttled_submissions > 0
        # A gate only ever holds an IO back.
        assert all(late >= early for late, early in zip(gated, free))
        assert gated != free

    def test_both_gates_active_on_a_long_batch_with_ties(self):
        """200 IOs through a device limit of 4 and a table limit of 2: one
        batch equals 200 one-entry batches, completion-time ties included."""
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2)
        rows = [row % 50 for row in range(200)]
        batched, batched_layout = _engine(config)
        single, single_layout = _engine(config)
        tied = 0
        for wave in range(2):  # the second wave starts against full pools
            completions = _submit_one_by_one(single, single_layout, rows, wave * 1e-6)
            assert _submit(batched, batched_layout, rows, wave * 1e-6).tolist() == completions
            tied += len(completions) - len(set(completions))
        # Some IOs completed at the same instant, and more waits were
        # counted than IOs submitted: both gates held submissions back.
        assert tied > 0
        assert 2 * 200 < batched.stats.throttled_submissions < 2 * 2 * 200
        assert _engine_state(single) == _engine_state(batched)

    def test_throttled_counting_identical_between_gates(self):
        config = IOEngineConfig(max_outstanding_per_device=3, max_outstanding_per_table=2)
        batched, batched_layout = _engine(config, num_devices=2)
        single, single_layout = _engine(config, num_devices=2)
        for wave in range(2):
            _submit(batched, batched_layout, range(32), wave * 1e-5)
            _submit_one_by_one(single, single_layout, range(32), wave * 1e-5)
        assert batched.stats.throttled_submissions > 0
        assert batched.stats.throttled_submissions == single.stats.throttled_submissions


class TestResetSplit:
    """Resetting counters leaves the queues, resetting queues the counters."""

    def test_reset_stats_leaves_outstanding_pools(self):
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=4)
        engine, layout = _engine(config)
        _submit(engine, layout, range(16))
        pools_before = _pool_multisets(engine)
        assert any(pools_before[0].values())
        reset(engine, {COUNTER})
        assert engine.stats.ios_submitted == 0
        assert engine.stats.throttled_submissions == 0
        assert _pool_multisets(engine) == pools_before
        # The surviving pools still gate: resubmitting immediately throttles.
        _submit(engine, layout, range(16))
        assert engine.stats.throttled_submissions > 0

    def test_reset_queues_leaves_stats(self):
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=4)
        engine, layout = _engine(config)
        _submit(engine, layout, range(16))
        stats_before = engine.stats
        reset(engine, {QUEUE})
        assert engine.stats is stats_before
        per_device, per_table = _pool_multisets(engine)
        assert all(pool == [] for pool in per_device.values())
        assert per_table == {}

    def test_reset_queues_forgets_gating_state(self):
        config = IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=4)
        engine, layout = _engine(config)
        _submit(engine, layout, range(16))
        reset(engine, {QUEUE})
        reset(engine, {COUNTER})
        _submit(engine, layout, range(4))
        # With the pools cleared, a small burst fits without throttling.
        assert engine.stats.throttled_submissions == 0
