"""Scatter-Gather List modelling of NVMe sub-block reads.

Section 4.1.1 of the paper enables arbitrary read granularity (down to a
DWORD) by combining an io_uring kernel extension with the NVMe SGL Bit Bucket
descriptor: the host describes which byte ranges of a logical block it wants,
and the rest of the block is discarded device-side instead of crossing the
PCIe bus.  This module models that descriptor and computes how many bytes
actually transfer with and without the feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.units import BLOCK_SIZE

#: Smallest addressable granule of a sub-block read (a DWORD).
DWORD = 4


def _round_up(value: int, granule: int) -> int:
    return -(-value // granule) * granule


def _round_down(value: int, granule: int) -> int:
    return (value // granule) * granule


@dataclass(frozen=True)
class ScatterGatherEntry:
    """One desired byte range within a logical block."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative: {self.offset}")
        if self.length <= 0:
            raise ValueError(f"length must be positive: {self.length}")
        if self.offset + self.length > BLOCK_SIZE:
            raise ValueError(
                f"range [{self.offset}, {self.offset + self.length}) exceeds the "
                f"{BLOCK_SIZE} B block"
            )

    def dword_aligned(self) -> Tuple[int, int]:
        """The DWORD-aligned (offset, length) that the device transfers."""
        start = _round_down(self.offset, DWORD)
        end = _round_up(self.offset + self.length, DWORD)
        return start, end - start


@dataclass
class ScatterGatherList:
    """The set of ranges of one block requested by a single IO."""

    entries: List[ScatterGatherEntry] = field(default_factory=list)

    def add(self, offset: int, length: int) -> None:
        self.entries.append(ScatterGatherEntry(offset=offset, length=length))

    def requested_bytes(self) -> int:
        """Bytes the application actually asked for."""
        return sum(entry.length for entry in self.entries)

    def transferred_bytes(self, sub_block_enabled: bool) -> int:
        """Bytes crossing the bus for this IO.

        With sub-block reads enabled only the DWORD-aligned union of the
        requested ranges transfers; otherwise the whole block does.
        """
        if not self.entries:
            raise ValueError("scatter-gather list has no entries")
        if not sub_block_enabled:
            return BLOCK_SIZE
        covered: List[Tuple[int, int]] = sorted(
            entry.dword_aligned() for entry in self.entries
        )
        merged: List[Tuple[int, int]] = []
        for start, length in covered:
            end = start + length
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return sum(end - start for start, end in merged)
