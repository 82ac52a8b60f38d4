"""io_uring-like asynchronous IO engine.

Section 4.1 of the paper chooses io_uring for its low per-IO overhead, limits
the number of outstanding requests per device to smooth bursts on Nand Flash,
and (Appendix A.1) observes that polling instead of IRQ completion improves
IOPS per core by ~50% but is hard to integrate with operator-based execution.
This module models those costs and constraints:

* per-IO CPU cost in IRQ vs polling mode,
* per-device and per-table outstanding-IO limits (the Tuning API),
* sub-block (SGL) transfers vs full-block reads with the extra host memcpy
  the full-block path requires.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.units import BLOCK_SIZE, MICROSECOND
from repro.storage.device import BatchReadScheduler, SimulatedDevice
from repro.storage.sgl import DWORD
from repro.storage.block_layout import RowLocationBatch


class IOMode(str, enum.Enum):
    """Completion model for the IO engine."""

    IRQ = "irq"
    POLLING = "polling"


@dataclass(frozen=True)
class IOEngineConfig:
    """Tunable parameters of the IO engine (paper section 4.1 Tuning API).

    Attributes
    ----------
    mode:
        IRQ or polling completions.
    cpu_time_per_io_irq:
        Host CPU time consumed per IO with IRQ completions.
    polling_iops_per_core_gain:
        Relative IOPS/core improvement from polling (paper: ~50%).
    max_outstanding_per_device:
        Maximum IOs outstanding on one device; submissions beyond this wait
        for completions (smooths bursts, important for Nand Flash).
    max_outstanding_per_table:
        Maximum IOs outstanding for one embedding table.
    sub_block_reads:
        Whether the SGL bit-bucket sub-block read path is enabled.
    memcpy_bandwidth:
        Host memory bandwidth used to model the extra copy from a bounce
        buffer into the cache when sub-block reads are *not* available.
    """

    mode: IOMode = IOMode.IRQ
    cpu_time_per_io_irq: float = 5.0 * MICROSECOND
    polling_iops_per_core_gain: float = 0.5
    max_outstanding_per_device: int = 128
    max_outstanding_per_table: int = 64
    sub_block_reads: bool = True
    memcpy_bandwidth: float = 12.0e9

    def __post_init__(self) -> None:
        if self.cpu_time_per_io_irq <= 0:
            raise ValueError("cpu_time_per_io_irq must be positive")
        if self.polling_iops_per_core_gain < 0:
            raise ValueError("polling_iops_per_core_gain must be non-negative")
        if self.max_outstanding_per_device <= 0:
            raise ValueError("max_outstanding_per_device must be positive")
        if self.max_outstanding_per_table <= 0:
            raise ValueError("max_outstanding_per_table must be positive")
        if self.memcpy_bandwidth <= 0:
            raise ValueError("memcpy_bandwidth must be positive")

    @property
    def cpu_time_per_io(self) -> float:
        """Per-IO CPU time in the configured completion mode."""
        if self.mode is IOMode.POLLING:
            return self.cpu_time_per_io_irq / (1.0 + self.polling_iops_per_core_gain)
        return self.cpu_time_per_io_irq

    def iops_per_core(self, mode: Optional[IOMode] = None) -> float:
        """IOs per second a single core can drive in the given mode."""
        mode = mode if mode is not None else self.mode
        if mode is IOMode.POLLING:
            return (1.0 + self.polling_iops_per_core_gain) / self.cpu_time_per_io_irq
        return 1.0 / self.cpu_time_per_io_irq


@dataclass
class IORequestBatch:
    """Structure-of-arrays batch of row reads (single-entry SGLs).

    ``device_index``/``lba``/``offset``/``length`` are parallel int64 input
    arrays, and :meth:`IOEngine.submit_row_reads_batch` fills the
    ``submit_time``/``completion_time``/``transferred_bytes``/``host_overhead``
    output arrays in request order.
    """

    table_name: str
    device_index: np.ndarray
    lba: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    submit_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    completion_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    transferred_bytes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    host_overhead: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        count = int(self.lba.size)
        if self.submit_time.size != count:
            self.submit_time = np.zeros(count, dtype=np.float64)
            self.completion_time = np.zeros(count, dtype=np.float64)
            self.transferred_bytes = np.zeros(count, dtype=np.int64)
            self.host_overhead = np.zeros(count, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.lba.size)

    @classmethod
    def from_locations(cls, table_name: str, locations: RowLocationBatch) -> "IORequestBatch":
        """Build a batch from one extent's :class:`RowLocationBatch`."""
        count = len(locations)
        return cls(
            table_name=table_name,
            device_index=np.full(count, locations.device_index, dtype=np.int64),
            lba=np.asarray(locations.lba, dtype=np.int64),
            offset=np.asarray(locations.offset, dtype=np.int64),
            length=np.full(count, locations.length, dtype=np.int64),
        )


@dataclass
class IOEngineStats:
    """Cumulative counters for the IO engine."""

    ios_submitted: int = 0
    cpu_seconds: float = 0.0
    memcpy_seconds: float = 0.0
    bytes_requested: int = 0
    bytes_transferred: int = 0
    throttled_submissions: int = 0

    @property
    def read_amplification(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_transferred / self.bytes_requested


class IOEngine:
    """Submits row reads to simulated devices with io_uring-like semantics."""

    def __init__(self, devices: Sequence[SimulatedDevice], config: Optional[IOEngineConfig] = None) -> None:
        if not devices:
            raise ValueError("IOEngine needs at least one device")
        self.devices = list(devices)
        self.config = config if config is not None else IOEngineConfig()
        self.stats = IOEngineStats()
        # Completion times of outstanding IOs, used to enforce queue-depth
        # limits without a full event loop.
        self._outstanding_per_device: Dict[int, List[float]] = {
            i: [] for i in range(len(self.devices))
        }
        self._outstanding_per_table: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ API
    def submit_row_reads_batch(self, batch: IORequestBatch, start_time: float) -> IORequestBatch:
        """Submit a batch of row reads in request order; fills it in place.

        Each IO is delayed until both its device and its table have fewer
        than the configured number of IOs outstanding (a gated submission
        starts when enough of them complete, and counts as throttled), is
        scheduled on its device, and pays the host's per-IO CPU time (plus
        the bounce-buffer memcpy without sub-block reads).  Submitting a
        batch is the same as submitting its IOs one at a time, whatever the
        split into calls: only the multiset of live completion times gates a
        submission, so each outstanding pool is kept sorted (``insort``) and
        the gate is two bisects; device scheduling steps through one
        :class:`BatchReadScheduler` session per device; every float
        accumulates left to right in request order.  Transferred sizes (the
        DWORD-aligned single-entry SGL arithmetic) are precomputed vectorised.
        """
        count = len(batch)
        if count == 0:
            return batch
        if start_time < 0:
            raise ValueError(f"arrival_time must be non-negative: {start_time}")
        device_index = np.asarray(batch.device_index, dtype=np.int64)
        bad_device = (device_index < 0) | (device_index >= len(self.devices))
        if bool(bad_device.any()):
            raise IndexError(
                f"request for table {batch.table_name!r} references device "
                f"{int(device_index[bad_device][0])}, engine has {len(self.devices)}"
            )
        offset = np.asarray(batch.offset, dtype=np.int64)
        length = np.asarray(batch.length, dtype=np.int64)
        lba = np.asarray(batch.lba, dtype=np.int64)
        invalid = (offset < 0) | (length <= 0) | (offset + length > BLOCK_SIZE)
        if bool(invalid.any()):
            where = int(np.nonzero(invalid)[0][0])
            raise ValueError(
                f"range [{int(offset[where])}, {int(offset[where]) + int(length[where])}) "
                f"exceeds the {BLOCK_SIZE} B block"
            )

        sub_block = self.config.sub_block_reads
        transferred = np.empty(count, dtype=np.int64)
        schedulers: Dict[int, BatchReadScheduler] = {}
        pools = self._outstanding_per_device
        for raw_id in np.unique(device_index):
            device_id = int(raw_id)
            mask = device_index == device_id
            device = self.devices[device_id]
            device.check_lbas(lba[mask])
            if sub_block and device.spec.supports_sub_block:
                aligned_start = (offset[mask] // DWORD) * DWORD
                aligned_end = -(-(offset[mask] + length[mask]) // DWORD) * DWORD
                transferred[mask] = aligned_end - aligned_start
            else:
                transferred[mask] = BLOCK_SIZE
            pools[device_id].sort()
            schedulers[device_id] = device.schedule_read_batch(int(np.count_nonzero(mask)))
        table_pool = self._outstanding_per_table.setdefault(batch.table_name, [])
        table_pool.sort()

        device_ids = device_index.tolist()
        lengths = length.tolist()
        transfers = transferred.tolist()
        device_limit = self.config.max_outstanding_per_device
        table_limit = self.config.max_outstanding_per_table
        cpu_per_io = self.config.cpu_time_per_io
        memcpy_time = 0.0 if sub_block else BLOCK_SIZE / self.config.memcpy_bandwidth
        host_overhead = cpu_per_io if sub_block else cpu_per_io + memcpy_time
        cpu_seconds = self.stats.cpu_seconds
        memcpy_seconds = self.stats.memcpy_seconds
        throttled = 0
        submits: List[float] = []
        completions: List[float] = []

        for position in range(count):
            device_id = device_ids[position]
            pool = pools[device_id]
            submit = start_time
            if pool:
                cut = bisect_right(pool, submit)
                if cut:
                    del pool[:cut]
                if len(pool) >= device_limit:
                    submit = pool[len(pool) - device_limit]
                    throttled += 1
                    del pool[: bisect_right(pool, submit)]
            if table_pool:
                cut = bisect_right(table_pool, submit)
                if cut:
                    del table_pool[:cut]
                if len(table_pool) >= table_limit:
                    submit = table_pool[len(table_pool) - table_limit]
                    throttled += 1
                    del table_pool[: bisect_right(table_pool, submit)]
            completion = schedulers[device_id].schedule(
                submit, lengths[position], transfers[position]
            )
            cpu_seconds += cpu_per_io
            if memcpy_time:
                memcpy_seconds += memcpy_time
            completion = completion + host_overhead
            insort(pool, completion)
            insort(table_pool, completion)
            submits.append(submit)
            completions.append(completion)

        for scheduler in schedulers.values():
            scheduler.finish()
        batch.submit_time[:] = submits
        batch.completion_time[:] = completions
        batch.transferred_bytes[:] = transferred
        batch.host_overhead[:] = host_overhead
        self.stats.ios_submitted += count
        self.stats.cpu_seconds = cpu_seconds
        self.stats.memcpy_seconds = memcpy_seconds
        self.stats.bytes_requested += int(length.sum())
        self.stats.bytes_transferred += int(transferred.sum())
        self.stats.throttled_submissions += throttled
        return batch

    def reset_stats(self) -> None:
        """Zero the cumulative counters; outstanding-IO pools are untouched."""
        self.stats = IOEngineStats()

    def reset_queues(self) -> None:
        """Forget outstanding IOs (the queue-depth gating state); stats untouched."""
        for pool in self._outstanding_per_device.values():
            pool.clear()
        self._outstanding_per_table.clear()
