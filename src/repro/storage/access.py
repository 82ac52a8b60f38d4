"""Access paths from the application to SM data: DIRECT-IO vs mmap.

The paper evaluated ``mmap`` against ``DIRECT_IO`` with an application-level
cache and chose the latter: with small access granularity and little spatial
locality, mmap wastes fast-memory space on full 4 KiB pages and is roughly 3x
slower per access (section 4.1).  Both paths are modelled here so the
comparison can be reproduced.

Either path resolves a table's rows to one extent on one device (a
:class:`~repro.storage.block_layout.RowLocationBatch`) and hands located rows
to :meth:`~repro.storage.io_engine.IOEngine.submit_row_reads_batch`, which
returns their completion times: DIRECT-IO all of them in one call, mmap one
block per page fault.  No row bytes are moved.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, Mapping, Tuple

import numpy as np

from repro.sim.state import CONTENTS, COUNTER, QUEUE
from repro.sim.units import BLOCK_SIZE, GIB
from repro.storage.block_layout import BlockLayout, RowLocationBatch
from repro.storage.io_engine import IOEngine


class AccessPath(abc.ABC):
    """Interface shared by the DIRECT-IO and mmap read paths."""

    @abc.abstractmethod
    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> np.ndarray:
        """Read a batch of rows of one table, all issued at ``start_time``:
        the float64 completion time of every row, in request order."""

    @abc.abstractmethod
    def fm_footprint_bytes(self) -> int:
        """Fast-memory bytes this access path consumes beyond the row cache."""


class DirectIOReader(AccessPath):
    """O_DIRECT row reads through the io_uring engine.

    Only the requested row bytes land in fast memory (when sub-block reads are
    enabled), and the application-level cache owns all FM space.
    """

    def __init__(self, engine: IOEngine, layout: BlockLayout) -> None:
        self.engine = engine
        self.layout = layout

    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> np.ndarray:
        """Whole-batch DIRECT-IO read: locate and submit as arrays.

        One :meth:`IOEngine.submit_row_reads_batch` call carries the located
        rows through queue-depth gating and device scheduling on the
        extent's device.
        """
        locations = self.layout.locate_batch(table_name, row_indices)
        return self.engine.submit_row_reads_batch(table_name, locations, start_time)

    def fm_footprint_bytes(self) -> int:
        return 0


class MmapReader(AccessPath):
    """mmap-based access: whole pages are faulted into the page cache.

    Models the two drawbacks the paper observed: roughly ``latency_factor``
    (default 3x) higher access latency, and fast memory consumed by full
    4 KiB pages even though only 128-256 B of each page is useful.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {
        "_pages": CONTENTS,
        "_fault_times": QUEUE,
        "page_faults": COUNTER,
        "page_hits": COUNTER,
    }

    def __init__(
        self,
        engine: IOEngine,
        layout: BlockLayout,
        latency_factor: float = 3.0,
        page_cache_capacity_bytes: int = GIB,
    ) -> None:
        if latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1.0: {latency_factor}")
        if page_cache_capacity_bytes <= 0:
            raise ValueError("page_cache_capacity_bytes must be positive")
        self.engine = engine
        self.layout = layout
        self.latency_factor = latency_factor
        self.page_cache_capacity_bytes = page_cache_capacity_bytes
        # The mapped pages, keyed by (device, lba) in insertion order: popping
        # the first gives FIFO eviction, a reasonable stand-in for kernel page
        # reclaim.  A mapped page absent from _fault_times has landed.
        self._pages: Dict[Tuple[int, int], None] = {}
        # Completion time of the fault that brought each page in.
        self._fault_times: Dict[Tuple[int, int], float] = {}
        self.page_faults = 0
        self.page_hits = 0

    def _page_cache_pages(self) -> int:
        return self.page_cache_capacity_bytes // BLOCK_SIZE

    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> np.ndarray:
        """Page-cache walk in request order, one device IO per page fault.

        The walk is serial because the dependency is real: a fault maps the
        page that later rows of the same batch then hit.  Each fault goes
        through the engine as a one-entry batch of a full block — a fault
        always transfers the whole page, whatever the engine's sub-block
        setting — and an access to a page whose fault is still in flight
        stalls until it completes (no new device IO either way).
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        locations = self.layout.locate_batch(table_name, rows)
        device_index = locations.device_index
        completions = np.empty(rows.size, dtype=np.float64)
        for position, lba in enumerate(locations.lba.tolist()):
            page_key = (device_index, lba)
            if page_key in self._pages:
                self.page_hits += 1
                completions[position] = max(self._fault_times.get(page_key, 0.0), start_time)
                continue
            self.page_faults += 1
            fault = RowLocationBatch(
                device_index, np.array([lba]), np.zeros(1, dtype=np.int64), BLOCK_SIZE
            )
            done = self.engine.submit_row_reads_batch(table_name, fault, start_time)
            latency = (float(done[0]) - start_time) * self.latency_factor
            if len(self._pages) >= self._page_cache_pages():
                evicted = next(iter(self._pages))
                del self._pages[evicted]
                self._fault_times.pop(evicted, None)
            self._pages[page_key] = None
            self._fault_times[page_key] = completions[position] = start_time + latency
        return completions

    def fm_footprint_bytes(self) -> int:
        return len(self._pages) * BLOCK_SIZE
