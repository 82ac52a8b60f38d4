"""Discrete-event simulation of a slow-memory (SM) block device.

The device models timing and counts, not contents: a table load is counted
as block writes, and a read is an LBA, a scatter-gather list and a time.
Service time comes from a multi-channel queue: each IO occupies one internal channel for ``1 / max_iops *
parallelism`` seconds, so aggregate throughput saturates at the spec's IOPS
ceiling while latency stays near the unloaded base latency until the device
approaches saturation -- the behaviour Figure 3 of the paper shows for Nand
Flash and Optane SSDs.

A batch of read IOs is timed by one :meth:`SimulatedDevice.read_batch` call;
:meth:`SimulatedDevice.schedule_read` is its per-IO reference.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import ClassVar, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.rng import make_rng
from repro.sim.state import COUNTER, QUEUE, RNG, Counters
from repro.sim.units import BLOCK_SIZE
from repro.storage.sgl import ScatterGatherList
from repro.storage.spec import DeviceSpec


@dataclass
class DeviceStats(Counters):
    """Cumulative counters for one simulated device."""

    reads: int = 0
    writes: int = 0
    bytes_requested: int = 0
    bytes_transferred: int = 0
    bytes_written: int = 0
    tail_events: int = 0
    busy_time: float = 0.0

    @property
    def read_amplification(self) -> float:
        """Bytes moved over the bus per byte the application asked for."""
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_transferred / self.bytes_requested


class SimulatedDevice:
    """A simulated NVMe (or CXL/DIMM) device: an LBA range, its channels
    and its counters.

    The table load is counted once (:meth:`load`) and nothing is written
    while serving; the stats (the load's writes included), the channels and
    the tail-latency stream are run state.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {
        "stats": COUNTER,
        "channel_free": QUEUE,
        "rng": RNG,
    }

    def __init__(self, spec: DeviceSpec, seed: int = 0) -> None:
        self.spec = spec
        self.stats = DeviceStats()
        self.channel_free: np.ndarray = np.zeros(spec.internal_parallelism, dtype=float)
        self.rng = make_rng(seed, "device", spec.name)
        self._num_blocks = spec.capacity_bytes // BLOCK_SIZE

    # ------------------------------------------------------------------ data
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self._num_blocks:
            raise IndexError(
                f"lba {lba} out of range for device {self.spec.name!r} "
                f"with {self._num_blocks} blocks"
            )

    def check_lbas(self, lbas: np.ndarray) -> None:
        """Vectorised :meth:`_check_lba` over an int64 array."""
        if lbas.size and (lbas.min() < 0 or lbas.max() >= self._num_blocks):
            self._check_lba(int(lbas[(lbas < 0) | (lbas >= self._num_blocks)][0]))

    def load(self, first_lba: int, num_blocks: int) -> None:
        """Count the load of ``num_blocks`` whole blocks at consecutive LBAs
        from ``first_lba``: one write of ``BLOCK_SIZE`` bytes each."""
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be non-negative: {num_blocks}")
        if num_blocks == 0:
            return
        self._check_lba(first_lba)
        self._check_lba(first_lba + num_blocks - 1)
        self.stats.bytes_written += num_blocks * BLOCK_SIZE
        self.stats.writes += num_blocks

    # ---------------------------------------------------------------- timing
    def _tail_penalty(self) -> float:
        if self.spec.tail_latency_probability <= 0.0:
            return 0.0
        if self.rng.random() < self.spec.tail_latency_probability:
            self.stats.tail_events += 1
            return self.spec.tail_latency
        return 0.0

    def schedule_read(
        self,
        lba: int,
        sgl: ScatterGatherList,
        arrival_time: float,
        sub_block_enabled: bool = True,
    ) -> Tuple[float, int]:
        """Serve one read IO: ``(completion_time, transferred_bytes)``."""
        self._check_lba(lba)
        if arrival_time < 0:
            raise ValueError(f"arrival_time must be non-negative: {arrival_time}")
        transferred = sgl.transferred_bytes(
            sub_block_enabled=sub_block_enabled and self.spec.supports_sub_block
        )
        requested = sgl.requested_bytes()

        channel = int(np.argmin(self.channel_free))
        start = max(arrival_time, float(self.channel_free[channel]))
        service = self.spec.service_time_per_io()
        self.channel_free[channel] = start + service
        transfer = transferred / self.spec.read_bus_bandwidth
        completion = (
            start
            + service
            + self.spec.base_read_latency
            + transfer
            + self._tail_penalty()
        )

        self.stats.reads += 1
        self.stats.bytes_requested += requested
        self.stats.bytes_transferred += transferred
        self.stats.busy_time += service + transfer
        return completion, transferred

    def read_batch(
        self,
        start_time: float,
        transferred: np.ndarray,
        requested_bytes: int,
        device_gate: Optional[Tuple[List[float], int]] = None,
        table_gate: Optional[Tuple[List[float], int]] = None,
        host_overhead: float = 0.0,
    ) -> Tuple[List[float], int]:
        """Serve a batch of read IOs, all issued at ``start_time``, in order.

        IO *i* moves ``transferred[i]`` bytes over the bus; the batch asked
        for ``requested_bytes`` in all.  A gate is ``(pool, limit)``: the
        sorted completion times of the IOs in flight, updated in place, and
        how many there may be.  An IO is submitted once each gate has fewer
        than its limit outstanding: completions no later than the submission
        leave the gate's pool, and if ``limit`` or more remain the IO waits
        for the one that brings the pool below the limit (one throttled
        submission per gate that made it wait).  It then takes the channel
        that frees first, and its completion -- ``host_overhead`` after the
        device is done -- joins both pools.  A gate left out limits nothing.

        Returns ``(completion_times, throttled_submissions)``.  Queue-depth
        gating makes the batch sequential -- IO *i*'s completion gates IO
        *i + 1* -- so one loop replays it IO by IO over locals, and channels
        and stats are written back once at the end.  Bit-identical to one
        :meth:`schedule_read` per IO: the channel heap's ``(free_time,
        channel)`` tie-break is ``np.argmin``'s first minimum, the tail flags
        are one ``rng.random(count)`` call (the PCG64 stream of ``count``
        single draws), and every float sum replays its left-to-right chain.
        """
        spec = self.spec
        count = transferred.size
        tails = [0.0] * count
        tail_events = 0
        if spec.tail_latency_probability > 0.0 and count > 0:
            flags = self.rng.random(count) < spec.tail_latency_probability
            tail_events = int(np.count_nonzero(flags))
            tails = np.where(flags, spec.tail_latency, 0.0).tolist()
        heap = [(free, channel) for channel, free in enumerate(self.channel_free.tolist())]
        heapq.heapify(heap)
        service = spec.service_time_per_io()
        base = spec.base_read_latency
        transfers = transferred / spec.read_bus_bandwidth
        device_pool, device_limit = device_gate or ([], sys.maxsize)
        table_pool, table_limit = table_gate or ([], sys.maxsize)
        throttled = 0
        completions: List[float] = []
        for transfer, tail in zip(transfers.tolist(), tails):
            submit = start_time
            if device_pool and device_pool[0] <= submit:
                del device_pool[: bisect_right(device_pool, submit)]
            if len(device_pool) >= device_limit:
                submit = device_pool[len(device_pool) - device_limit]
                throttled += 1
                del device_pool[: bisect_right(device_pool, submit)]
            if table_pool and table_pool[0] <= submit:
                del table_pool[: bisect_right(table_pool, submit)]
            if len(table_pool) >= table_limit:
                submit = table_pool[len(table_pool) - table_limit]
                throttled += 1
                del table_pool[: bisect_right(table_pool, submit)]
            free, channel = heap[0]
            done = (submit if submit > free else free) + service
            heapq.heapreplace(heap, (done, channel))
            completion = done + base + transfer + tail + host_overhead
            insort(device_pool, completion)
            insort(table_pool, completion)
            completions.append(completion)

        for free, channel in heap:
            self.channel_free[channel] = free
        stats = self.stats
        busy = np.concatenate(([stats.busy_time], service + transfers))
        stats.busy_time = float(np.add.accumulate(busy)[-1])
        stats.reads += count
        stats.bytes_requested += requested_bytes
        stats.bytes_transferred += int(transferred.sum())
        stats.tail_events += tail_events
        return completions, throttled

    def __repr__(self) -> str:
        return f"SimulatedDevice({self.spec.name!r}, {self.spec.capacity_bytes} B)"
