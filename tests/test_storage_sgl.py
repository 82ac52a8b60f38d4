"""Tests for scatter-gather sub-block reads (section 4.1.1)."""

import pytest

from repro.sim.units import BLOCK_SIZE
from repro.storage import ScatterGatherEntry, ScatterGatherList


class TestScatterGatherEntry:
    def test_dword_alignment_expands_range(self):
        entry = ScatterGatherEntry(offset=10, length=7)
        offset, length = entry.dword_aligned()
        assert offset == 8
        assert length == 12  # [8, 20) covers [10, 17)

    def test_aligned_entry_unchanged(self):
        entry = ScatterGatherEntry(offset=128, length=64)
        assert entry.dword_aligned() == (128, 64)

    def test_range_outside_block_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherEntry(offset=BLOCK_SIZE - 4, length=8)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherEntry(offset=0, length=0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherEntry(offset=-4, length=8)


class TestScatterGatherList:
    def test_requested_bytes_sums_entries(self):
        sgl = ScatterGatherList()
        sgl.add(0, 128)
        sgl.add(512, 64)
        assert sgl.requested_bytes() == 192

    def test_without_sub_block_full_block_transfers(self):
        sgl = ScatterGatherList()
        sgl.add(0, 128)
        assert sgl.transferred_bytes(sub_block_enabled=False) == BLOCK_SIZE

    def test_with_sub_block_only_requested_range_transfers(self):
        sgl = ScatterGatherList()
        sgl.add(256, 128)
        assert sgl.transferred_bytes(sub_block_enabled=True) == 128

    def test_overlapping_entries_are_merged(self):
        sgl = ScatterGatherList()
        sgl.add(0, 100)
        sgl.add(50, 100)
        assert sgl.transferred_bytes(sub_block_enabled=True) == 152  # [0, 152) dword aligned

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherList().transferred_bytes(sub_block_enabled=True)

    def test_bus_savings_for_typical_embedding_row(self):
        """A 128-256B row read out of a 4KiB block saves >= 75% of bus BW
        (the figure quoted in the paper)."""
        for row_bytes in (128, 192, 256):
            sgl = ScatterGatherList()
            sgl.add(1024, row_bytes)
            small = sgl.transferred_bytes(sub_block_enabled=True)
            assert small / sgl.transferred_bytes(sub_block_enabled=False) <= 0.25

    def test_full_block_request_saves_nothing(self):
        sgl = ScatterGatherList()
        sgl.add(0, BLOCK_SIZE)
        assert sgl.transferred_bytes(sub_block_enabled=True) == (
            sgl.transferred_bytes(sub_block_enabled=False)
        )

    def test_dword_granularity_minimum_transfer(self):
        sgl = ScatterGatherList()
        sgl.add(0, 1)
        assert sgl.transferred_bytes(sub_block_enabled=True) == 4
