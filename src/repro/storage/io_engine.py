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

A submission is one table's :class:`~repro.storage.block_layout.RowLocationBatch`
(an extent lives on exactly one device).  The engine checks it, works out
transfer sizes and host costs as arrays, and hands the per-IO replay -- both
gates and the channels in one loop -- to one
:meth:`~repro.storage.device.SimulatedDevice.read_batch` call, whose
completion times it returns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.sim.clock import charge_repeatedly
from repro.sim.state import COUNTER, QUEUE
from repro.sim.units import BLOCK_SIZE, MICROSECOND
from repro.storage.device import SimulatedDevice
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

    STATE_ROLES: ClassVar[Mapping[str, str]] = {
        "stats": COUNTER,
        "_outstanding_per_device": QUEUE,
        "_outstanding_per_table": QUEUE,
    }

    def __init__(self, devices: Sequence[SimulatedDevice], config: Optional[IOEngineConfig] = None) -> None:
        if not devices:
            raise ValueError("IOEngine needs at least one device")
        self.devices = list(devices)
        self.config = config if config is not None else IOEngineConfig()
        self.stats = IOEngineStats()
        # Completion times of outstanding IOs, used to enforce queue-depth
        # limits without a full event loop.  Only the device's read loop adds
        # to a pool (by insort), so every pool is sorted at all times.
        self._outstanding_per_device: Dict[int, List[float]] = {
            i: [] for i in range(len(self.devices))
        }
        self._outstanding_per_table: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ API
    def submit_row_reads_batch(
        self, table_name: str, locations: RowLocationBatch, start_time: float
    ) -> np.ndarray:
        """Submit a batch of row reads in request order, all issued at
        ``start_time``; returns the float64 completion time of each.

        Each IO is delayed until both the device and the table have fewer
        than the configured number of IOs outstanding (a gated submission
        starts when enough of them complete, and counts as throttled), is
        scheduled on the device, and pays the host's per-IO CPU time (plus
        the bounce-buffer memcpy without sub-block reads).  Submitting a
        batch is the same as submitting its IOs one at a time, whatever the
        split into calls: only the multiset of live completion times gates a
        submission, so each outstanding pool stays sorted and
        :meth:`SimulatedDevice.read_batch` runs gate and device in one loop;
        every float accumulates left to right in request order.  Transferred
        sizes (the DWORD-aligned single-entry SGL arithmetic) are computed
        vectorised.  A batch that fails a check is rejected whole, before
        any state -- counters, pools, channels, the tail-latency stream --
        has moved.
        """
        count = len(locations)
        if count == 0:
            return np.zeros(0)
        if start_time < 0:
            raise ValueError(f"start_time must be non-negative: {start_time}")
        if not 0 <= locations.device_index < len(self.devices):
            raise IndexError(
                f"request for table {table_name!r} references device "
                f"{locations.device_index}, engine has {len(self.devices)}"
            )
        device = self.devices[locations.device_index]
        offset = locations.offset
        length = locations.length
        end = offset + length
        if length <= 0 or offset.min() < 0 or end.max() > BLOCK_SIZE:
            where = int(np.argmax((offset < 0) | (end > BLOCK_SIZE) | (length <= 0)))
            raise ValueError(
                f"range [{int(offset[where])}, {int(end[where])}) "
                f"exceeds the {BLOCK_SIZE} B block"
            )
        device.check_lbas(locations.lba)

        config = self.config
        if config.sub_block_reads and device.spec.supports_sub_block:
            transferred = -(-end // DWORD) * DWORD - (offset // DWORD) * DWORD
        else:
            transferred = np.full(count, BLOCK_SIZE, dtype=np.int64)
        cpu_per_io = config.cpu_time_per_io
        memcpy_time = 0.0 if config.sub_block_reads else BLOCK_SIZE / config.memcpy_bandwidth
        requested_bytes = int(length) * count

        device_pool = self._outstanding_per_device[locations.device_index]
        table_pool = self._outstanding_per_table.setdefault(table_name, [])
        completions, throttled = device.read_batch(
            start_time,
            transferred,
            requested_bytes,
            (device_pool, config.max_outstanding_per_device),
            (table_pool, config.max_outstanding_per_table),
            cpu_per_io + memcpy_time,
        )
        stats = self.stats
        stats.ios_submitted += count
        stats.cpu_seconds = charge_repeatedly(stats.cpu_seconds, cpu_per_io, count)
        if memcpy_time:
            stats.memcpy_seconds = charge_repeatedly(stats.memcpy_seconds, memcpy_time, count)
        stats.bytes_requested += requested_bytes
        stats.bytes_transferred += int(transferred.sum())
        stats.throttled_submissions += throttled
        return np.array(completions)
