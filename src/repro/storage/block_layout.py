"""Mapping from (table, row) coordinates to device blocks.

Embedding tables stored on SM are laid out row-major across 4 KiB logical
blocks.  Rows never straddle a block boundary (matching the deployment the
paper describes, where the quantised row of 128-256 B fits many times into a
block), so a single row read touches exactly one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.sim.units import BLOCK_SIZE


@dataclass(frozen=True)
class RowLocation:
    """Physical location of one embedding row on a device."""

    device_index: int
    lba: int
    offset: int
    length: int


@dataclass(frozen=True)
class RowLocationBatch:
    """Physical locations of a batch of rows of one table extent: what one
    :meth:`~repro.storage.io_engine.IOEngine.submit_row_reads_batch` call reads.

    A table extent lives on exactly one device and every row shares a byte
    length, so only the per-row int64 ``lba``/``offset`` arrays vary;
    ``device_index`` and ``length`` stay scalars.
    """

    device_index: int
    lba: np.ndarray
    offset: np.ndarray
    length: int

    def __len__(self) -> int:
        return int(self.lba.size)


@dataclass(frozen=True)
class _TableExtent:
    """Contiguous block extent assigned to one table on one device."""

    table_name: str
    device_index: int
    first_lba: int
    num_blocks: int
    row_bytes: int
    num_rows: int
    rows_per_block: int


class BlockLayout:
    """Allocates block extents for tables across one or more devices.

    Tables are assigned to devices round-robin by remaining free capacity
    (largest-remaining-first), which is how the deployment stripes tables
    across the two SSDs of the HW-SS / HW-AN / HW-AO platforms.
    """

    def __init__(self, device_capacities: Iterable[int], block_size: int = BLOCK_SIZE) -> None:
        capacities = [int(c) for c in device_capacities]
        if not capacities:
            raise ValueError("BlockLayout needs at least one device capacity")
        if any(c <= 0 for c in capacities):
            raise ValueError(f"device capacities must be positive: {capacities}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size}")
        self.block_size = block_size
        self._total_blocks = [c // block_size for c in capacities]
        self._next_lba = [0 for _ in capacities]
        self._extents: Dict[str, _TableExtent] = {}

    @property
    def num_devices(self) -> int:
        return len(self._total_blocks)

    def free_blocks(self, device_index: int) -> int:
        return self._total_blocks[device_index] - self._next_lba[device_index]

    def allocated_bytes(self, device_index: int) -> int:
        return self._next_lba[device_index] * self.block_size

    def add_table(self, table_name: str, num_rows: int, row_bytes: int) -> _TableExtent:
        """Allocate space for a table and return its extent.

        Raises ``ValueError`` if the table is already placed, a row does not
        fit in a block, or no device has enough contiguous space.
        """
        if table_name in self._extents:
            raise ValueError(f"table {table_name!r} is already placed on SM")
        if num_rows <= 0:
            raise ValueError(f"table {table_name!r} must have rows: {num_rows}")
        if row_bytes <= 0:
            raise ValueError(f"table {table_name!r} row_bytes must be positive: {row_bytes}")
        if row_bytes > self.block_size:
            raise ValueError(
                f"row of {row_bytes} B does not fit in a {self.block_size} B block; "
                "rows larger than a block are not supported"
            )
        rows_per_block = self.block_size // row_bytes
        num_blocks = -(-num_rows // rows_per_block)  # ceil division

        device_index = max(range(self.num_devices), key=self.free_blocks)
        if self.free_blocks(device_index) < num_blocks:
            raise ValueError(
                f"no device has {num_blocks} free blocks for table {table_name!r} "
                f"(best has {self.free_blocks(device_index)})"
            )
        extent = _TableExtent(
            table_name=table_name,
            device_index=device_index,
            first_lba=self._next_lba[device_index],
            num_blocks=num_blocks,
            row_bytes=row_bytes,
            num_rows=num_rows,
            rows_per_block=rows_per_block,
        )
        self._next_lba[device_index] += num_blocks
        self._extents[table_name] = extent
        return extent

    def tables(self) -> List[str]:
        return list(self._extents)

    def extent(self, table_name: str) -> _TableExtent:
        if table_name not in self._extents:
            raise KeyError(f"table {table_name!r} has not been placed on SM")
        return self._extents[table_name]

    def locate(self, table_name: str, row_index: int) -> RowLocation:
        """Return the physical location of ``row_index`` of ``table_name``."""
        extent = self.extent(table_name)
        if not 0 <= row_index < extent.num_rows:
            raise IndexError(
                f"row {row_index} out of range for table {table_name!r} "
                f"with {extent.num_rows} rows"
            )
        block_offset, row_in_block = divmod(row_index, extent.rows_per_block)
        return RowLocation(
            device_index=extent.device_index,
            lba=extent.first_lba + block_offset,
            offset=row_in_block * extent.row_bytes,
            length=extent.row_bytes,
        )

    def locate_batch(self, table_name: str, row_indices: np.ndarray) -> RowLocationBatch:
        """Vectorised :meth:`locate` for a whole array of row indices."""
        extent = self.extent(table_name)
        rows = np.asarray(row_indices, dtype=np.int64)
        if rows.size:
            bad = (rows < 0) | (rows >= extent.num_rows)
            if bool(bad.any()):
                raise IndexError(
                    f"row {int(rows[bad][0])} out of range for table {table_name!r} "
                    f"with {extent.num_rows} rows"
                )
        block_offset, row_in_block = np.divmod(rows, extent.rows_per_block)
        return RowLocationBatch(
            device_index=extent.device_index,
            lba=extent.first_lba + block_offset,
            offset=row_in_block * extent.row_bytes,
            length=extent.row_bytes,
        )

    def total_allocated_bytes(self) -> int:
        return sum(self.allocated_bytes(i) for i in range(self.num_devices))
