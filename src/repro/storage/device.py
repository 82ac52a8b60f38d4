"""Discrete-event simulation of a slow-memory (SM) block device.

The device models timing and counts, not contents: a table load is counted
as block writes, and a read is an LBA, a scatter-gather list and a time.
Service time comes from a multi-channel queue: each IO occupies one internal channel for ``1 / max_iops *
parallelism`` seconds, so aggregate throughput saturates at the spec's IOPS
ceiling while latency stays near the unloaded base latency until the device
approaches saturation -- the behaviour Figure 3 of the paper shows for Nand
Flash and Optane SSDs.

A whole batch of read IOs is timed by one :class:`BatchReadScheduler` loop;
:meth:`SimulatedDevice.schedule_read` is its scalar reference.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import ClassVar, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import make_rng
from repro.sim.state import COUNTER, QUEUE, RNG, Counters
from repro.sim.units import BLOCK_SIZE
from repro.storage.latency_model import LoadedLatencyModel
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


class BatchReadScheduler:
    """One batch of read IOs on one device, scheduled in a single loop.

    Queue-depth gating makes batched submission inherently sequential -- the
    completion of request *i* feeds the outstanding-IO pools that gate
    request *i + 1* -- so the session replays the batch IO by IO, but over
    locals only: :meth:`SimulatedDevice.schedule_read_batch` opens it,
    :meth:`schedule` runs the whole batch through the gates and the channels,
    :meth:`finish` writes channel state and stats back exactly once.

    Bit-identical to one ``schedule_read`` call per IO by construction:

    * channel assignment replaces the top of a ``(free_time, channel)`` heap
      whose lexicographic tie-break equals ``np.argmin``'s first-minimum
      rule;
    * the tail-penalty draws are one ``rng.random(count)`` call at opening,
      which consumes the PCG64 stream exactly like ``count`` single draws;
    * float accumulations (completion sum, ``busy_time``) replay its
      left-to-right addition chains term for term.
    """

    __slots__ = ("_device", "_count", "_heap", "_tails", "_tail_events", "_totals", "_finished")

    def __init__(self, device: "SimulatedDevice", count: int) -> None:
        spec = device.spec
        self._device = device
        self._count = count
        self._tails: List[float] = [0.0] * count
        self._tail_events = 0
        if spec.tail_latency_probability > 0.0 and count > 0:
            flags = device.rng.random(count) < spec.tail_latency_probability
            self._tail_events = int(np.count_nonzero(flags))
            self._tails = np.where(flags, spec.tail_latency, 0.0).tolist()
        heap = [(free, channel) for channel, free in enumerate(device.channel_free.tolist())]
        heapq.heapify(heap)
        self._heap: List[Tuple[float, int]] = heap
        #: (reads, bytes requested, bytes transferred, busy_time) once scheduled.
        self._totals: Optional[Tuple[int, int, int, float]] = None
        self._finished = False

    def schedule(
        self,
        arrivals: Sequence[float],
        transferred: np.ndarray,
        requested_bytes: int,
        device_gate: Optional[Tuple[List[float], int]] = None,
        table_gate: Optional[Tuple[List[float], int]] = None,
        host_overhead: float = 0.0,
    ) -> Tuple[List[float], List[float], int]:
        """Schedule the session's IOs, all of them, in request order.

        IO *i* arrives at ``arrivals[i]`` and moves ``transferred[i]`` bytes
        over the bus.  A gate is ``(pool, limit)``: the sorted completion
        times of the IOs in flight, updated in place, and how many there may
        be.  An IO is submitted once each gate has fewer than its limit
        outstanding: completions no later than the arrival leave the
        gate's pool, and if ``limit`` or more remain the IO waits
        for the one that brings the pool below the limit (one throttled
        submission per gate that made it wait).  It then takes the channel
        that frees first, and its completion -- ``host_overhead`` after the
        device is done -- joins both pools.  A gate left out limits nothing.

        Returns ``(submit_times, completion_times, throttled_submissions)``.
        """
        if self._totals is not None or not len(arrivals) == transferred.size == self._count:
            raise ValueError(f"the session schedules its {self._count} IOs in one call")
        spec = self._device.spec
        service = spec.service_time_per_io()
        base = spec.base_read_latency
        transfers = transferred / spec.read_bus_bandwidth
        device_pool, device_limit = device_gate or ([], sys.maxsize)
        table_pool, table_limit = table_gate or ([], sys.maxsize)
        heap = self._heap
        throttled = 0
        submits: List[float] = []
        completions: List[float] = []
        for submit, transfer, tail in zip(arrivals, transfers.tolist(), self._tails):
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
            submits.append(submit)
            completions.append(completion)
        busy = np.concatenate(([self._device.stats.busy_time], service + transfers))
        busy_time = float(np.add.accumulate(busy)[-1])
        self._totals = (self._count, requested_bytes, int(transferred.sum()), busy_time)
        return submits, completions, throttled

    def finish(self) -> None:
        """Write channel occupancy and stats back to the device."""
        if self._finished or self._totals is None:
            return
        self._finished = True
        device = self._device
        for free, channel in self._heap:
            device.channel_free[channel] = free
        stats = device.stats
        reads, requested, transferred, stats.busy_time = self._totals
        stats.reads += reads
        stats.bytes_requested += requested
        stats.bytes_transferred += transferred
        stats.tail_events += self._tail_events


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
        self.latency_model = LoadedLatencyModel(spec)
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

    def schedule_read_batch(self, count: int) -> BatchReadScheduler:
        """Open a :class:`BatchReadScheduler` session for ``count`` read IOs.

        Draws the tail-latency samples (one batched RNG call), so whatever
        can reject the batch has to be checked before; call ``schedule`` once
        with the whole batch, then ``finish``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        return BatchReadScheduler(self, count)

    # ----------------------------------------------------------------- misc
    def expected_latency(self, offered_iops: float, transfer_bytes: Optional[int] = None) -> float:
        """Analytic loaded-latency estimate (see :class:`LoadedLatencyModel`)."""
        return self.latency_model.expected_latency(offered_iops, transfer_bytes)

    def __repr__(self) -> str:
        return f"SimulatedDevice({self.spec.name!r}, {self.spec.capacity_bytes} B)"
