"""Tests for the table-to-block layout."""

import pytest

from repro.sim.units import BLOCK_SIZE, MIB
from repro.storage import BlockLayout


class TestBlockLayoutAllocation:
    def test_rows_pack_into_blocks(self):
        layout = BlockLayout([1 * MIB])
        extent = layout.add_table("t", num_rows=100, row_bytes=128)
        assert extent.rows_per_block == BLOCK_SIZE // 128
        assert extent.num_blocks == -(-100 // extent.rows_per_block)

    def test_allocated_bytes_tracks_blocks(self):
        layout = BlockLayout([1 * MIB])
        extent = layout.add_table("t", num_rows=64, row_bytes=128)
        assert layout.allocated_bytes(0) == extent.num_blocks * BLOCK_SIZE

    def test_tables_spread_to_emptier_device(self):
        layout = BlockLayout([1 * MIB, 1 * MIB])
        first = layout.add_table("a", num_rows=32, row_bytes=128)
        second = layout.add_table("b", num_rows=32, row_bytes=128)
        assert first.device_index != second.device_index

    def test_duplicate_table_rejected(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("t", 10, 64)
        with pytest.raises(ValueError):
            layout.add_table("t", 10, 64)

    def test_row_larger_than_block_rejected(self):
        layout = BlockLayout([1 * MIB])
        with pytest.raises(ValueError):
            layout.add_table("t", 10, BLOCK_SIZE + 1)

    def test_out_of_capacity_rejected(self):
        layout = BlockLayout([8 * BLOCK_SIZE])
        with pytest.raises(ValueError):
            layout.add_table("t", num_rows=9 * 32, row_bytes=128)

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout([])

    def test_invalid_rows_rejected(self):
        layout = BlockLayout([1 * MIB])
        with pytest.raises(ValueError):
            layout.add_table("t", 0, 64)
        with pytest.raises(ValueError):
            layout.add_table("t", 10, 0)


class TestRowLocation:
    def test_locate_first_row(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("t", num_rows=100, row_bytes=100)
        location = layout.locate("t", 0)
        assert location.offset == 0
        assert location.length == 100

    def test_locate_row_within_block(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("t", num_rows=100, row_bytes=100)
        location = layout.locate("t", 3)
        assert location.lba == layout.extent("t").first_lba
        assert location.offset == 300

    def test_locate_row_in_second_block(self):
        layout = BlockLayout([1 * MIB])
        extent = layout.add_table("t", num_rows=100, row_bytes=100)
        location = layout.locate("t", extent.rows_per_block)
        assert location.lba == extent.first_lba + 1
        assert location.offset == 0

    def test_rows_never_straddle_blocks(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("t", num_rows=500, row_bytes=96)
        for row in range(500):
            location = layout.locate("t", row)
            assert location.offset + location.length <= BLOCK_SIZE

    def test_out_of_range_row_rejected(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("t", num_rows=10, row_bytes=100)
        with pytest.raises(IndexError):
            layout.locate("t", 10)

    def test_unknown_table_rejected(self):
        layout = BlockLayout([1 * MIB])
        with pytest.raises(KeyError):
            layout.locate("missing", 0)

    def test_total_allocated_bytes_sums_devices(self):
        layout = BlockLayout([1 * MIB, 1 * MIB])
        layout.add_table("a", 32, 128)
        layout.add_table("b", 32, 128)
        assert layout.total_allocated_bytes() == (
            layout.allocated_bytes(0) + layout.allocated_bytes(1)
        )

    def test_tables_listing(self):
        layout = BlockLayout([1 * MIB])
        layout.add_table("a", 8, 64)
        assert layout.tables() == ["a"]
        assert "b" not in layout.tables()
