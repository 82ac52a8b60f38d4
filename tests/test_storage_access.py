"""Tests for the DIRECT-IO and mmap access paths."""

import numpy as np
import pytest

from repro.sim.units import BLOCK_SIZE, GB
from repro.storage import (
    BlockLayout,
    DirectIOReader,
    IOEngine,
    IOEngineConfig,
    MmapReader,
    SimulatedDevice,
    nand_flash_spec,
)


def _setup(reader_cls, **reader_kwargs):
    device = SimulatedDevice(nand_flash_spec(1 * GB), seed=0)
    layout = BlockLayout([device.spec.capacity_bytes])
    layout.add_table("t", num_rows=1024, row_bytes=128)
    engine = IOEngine([device], IOEngineConfig())
    return reader_cls(engine, layout, **reader_kwargs), device


def _submitted(reader):
    """The ``(lba, offset, length)`` of every IO ``reader`` submits from now
    on, in submission order."""
    ios = []
    submit = reader.engine.submit_row_reads_batch

    def spy(table_name, locations, start_time):
        for lba, offset in zip(locations.lba.tolist(), locations.offset.tolist()):
            ios.append((lba, offset, locations.length))
        return submit(table_name, locations, start_time)

    reader.engine.submit_row_reads_batch = spy
    return ios


def _read(reader, rows, start_time=0.0):
    """The completion time of every row, in request order."""
    return reader.read_rows_batch("t", np.asarray(rows, dtype=np.int64), start_time)


def _read_one(reader, row, start_time=0.0):
    """The completion time of a one-row read."""
    return float(_read(reader, [row], start_time)[0])


class TestDirectIOReader:
    def test_reads_correct_row_data(self):
        # The IO asks for exactly the row's bytes where the layout put them.
        reader, _ = _setup(DirectIOReader)
        ios = _submitted(reader)
        _read_one(reader, 7)
        location = reader.layout.locate("t", 7)
        assert ios == [(location.lba, location.offset, 128)]

    def test_only_row_bytes_consume_fm(self):
        reader, _ = _setup(DirectIOReader)
        assert _read(reader, [7]).shape == (1,)
        assert reader.engine.stats.bytes_requested == 128
        assert reader.fm_footprint_bytes() == 0

    def test_latency_positive_and_matches_completion(self):
        reader, _ = _setup(DirectIOReader)
        assert _read_one(reader, 3, 0.5) > 0.5

    def test_multiple_rows_return_in_request_order(self):
        reader, _ = _setup(DirectIOReader)
        rows = [3, 7, 1]
        ios = _submitted(reader)
        assert _read(reader, rows).shape == (3,)
        located = [reader.layout.locate("t", row) for row in rows]
        assert ios == [(location.lba, location.offset, 128) for location in located]

    def test_batch_read_matches_scalar_reads(self):
        # One batch equals the same rows read one call at a time.
        rows = [3, 7, 1, 7, 40, 0]
        single_reader, single_device = _setup(DirectIOReader)
        batch_reader, batch_device = _setup(DirectIOReader)
        singles = [_read_one(single_reader, row, 0.25) for row in rows]
        assert singles == _read(batch_reader, rows, 0.25).tolist()
        assert single_device.stats == batch_device.stats
        assert single_reader.engine.stats == batch_reader.engine.stats


class TestMmapReader:
    def test_page_fault_then_hit(self):
        reader, _ = _setup(MmapReader)
        first_done = _read_one(reader, 7)
        second_done = _read_one(reader, 7, first_done)
        assert reader.page_faults == 1
        assert reader.page_hits == 1
        assert second_done == first_done  # served at once, no new IO

    def test_rows_in_same_block_share_a_fault(self):
        reader, _ = _setup(MmapReader)
        # rows 0 and 1 live in the same 4KiB block (128B rows).
        _read(reader, [0, 1])
        assert reader.page_faults == 1
        assert reader.page_hits == 1
        assert reader.engine.stats.ios_submitted == 1

    def test_page_fault_transfers_whole_block(self):
        reader, device = _setup(MmapReader)
        assert _read(reader, [7]).shape == (1,)  # the caller still gets one row
        assert reader.engine.stats.bytes_transferred == BLOCK_SIZE
        assert device.stats.bytes_transferred == BLOCK_SIZE
        assert reader.fm_footprint_bytes() == BLOCK_SIZE

    def test_mmap_fm_footprint_counts_resident_pages(self):
        reader, _ = _setup(MmapReader)
        _read(reader, [0])
        _read(reader, [100])
        assert reader.fm_footprint_bytes() == 2 * BLOCK_SIZE

    def test_page_cache_eviction_bounds_footprint(self):
        reader, _ = _setup(MmapReader, page_cache_capacity_bytes=2 * BLOCK_SIZE)
        # touch rows in 4 different blocks
        _read(reader, [0, 40, 80, 120])
        assert reader.page_faults == 4
        assert reader.fm_footprint_bytes() <= 2 * BLOCK_SIZE

    def test_page_cache_eviction_at_exact_capacity_boundary(self):
        # Capacity = exactly 2 pages: the 2nd fault fills the cache without
        # evicting, the 3rd evicts precisely the oldest page (FIFO), and a
        # re-read of the evicted block faults again.
        reader, _ = _setup(MmapReader, page_cache_capacity_bytes=2 * BLOCK_SIZE)
        rows = (0, 40, 80)  # three distinct blocks (32 rows of 128 B / block)
        cursor = 0.0
        for row in rows:
            cursor = _read_one(reader, row, cursor)
        assert reader.page_faults == 3
        assert reader.fm_footprint_bytes() == 2 * BLOCK_SIZE
        # Block of row 40 (2nd fault) survived; block of row 0 was evicted.
        hit_done = _read_one(reader, 40, cursor)
        assert reader.page_hits == 1
        assert hit_done == cursor
        _read(reader, [0], cursor)
        assert reader.page_faults == 4

    def test_access_before_fault_completion_waits_for_the_fault(self):
        # Two rows of the same block, second access issued while the first
        # fault is still in flight: it counts as a page hit (no new IO) but
        # stalls until the fault's completion time.
        reader, _ = _setup(MmapReader)
        fault_done = _read_one(reader, 0)
        assert fault_done > 0.0
        early_done = _read_one(reader, 1)
        assert reader.page_faults == 1
        assert reader.page_hits == 1
        assert early_done == fault_done
        # After the fault completes the page serves instantly.
        late_done = _read_one(reader, 1, fault_done)
        assert late_done == fault_done
        # Within one batch too: the second row of the block waits for the
        # fault the first one took.
        batch = _read(reader, [40, 41])
        assert batch[1] == batch[0] > 0.0

    def test_mmap_data_matches_direct_io(self):
        # Both paths read the row's block; mmap faults in all of it.
        direct, _ = _setup(DirectIOReader)
        mapped, _ = _setup(MmapReader)
        direct_ios, mapped_ios = _submitted(direct), _submitted(mapped)
        _read_one(direct, 7)
        _read_one(mapped, 7)
        location = direct.layout.locate("t", 7)
        assert direct_ios == [(location.lba, location.offset, 128)]
        assert mapped_ios == [(location.lba, 0, BLOCK_SIZE)]

    def test_mmap_slower_than_direct_io_for_cold_reads(self):
        """Section 4.1: mmap showed ~3x higher access latency."""
        direct, _ = _setup(DirectIOReader)
        mapped, _ = _setup(MmapReader, latency_factor=3.0)
        direct_lat = _read_one(direct, 9)
        mapped_lat = _read_one(mapped, 9)
        assert mapped_lat > 2.0 * direct_lat

    def test_invalid_latency_factor_rejected(self):
        device = SimulatedDevice(nand_flash_spec(1 * GB))
        layout = BlockLayout([device.spec.capacity_bytes])
        layout.add_table("t", 16, 128)
        engine = IOEngine([device])
        with pytest.raises(ValueError):
            MmapReader(engine, layout, latency_factor=0.5)
        with pytest.raises(ValueError):
            MmapReader(engine, layout, page_cache_capacity_bytes=0)
