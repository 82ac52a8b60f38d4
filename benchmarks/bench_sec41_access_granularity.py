"""Section 4.1: DIRECT-IO vs mmap, and sub-block (SGL) vs full-block reads.

Reproduces the access-path comparisons: mmap costs ~3x the access latency and
wastes FM on full pages, and sub-block reads save ~75% of the bus bandwidth
plus the extra host memcpy.
"""

import numpy as np

from repro import format_table
from repro.sim.units import GB
from repro.storage import (
    BlockLayout,
    DirectIOReader,
    IOEngine,
    IOEngineConfig,
    MmapReader,
    SimulatedDevice,
    nand_flash_spec,
)
from repro.workload import ZipfGenerator

from _util import emit, run_once

ROW_BYTES = 128
#: A large sparse table: cold reads rarely share a 4 KiB block, matching the
#: paper's observation that there is little spatial locality to exploit.
NUM_ROWS = 200_000
NUM_READS = 2_000


def _setup(sub_block=True, reader="direct"):
    device = SimulatedDevice(nand_flash_spec(64 * GB), seed=0)
    layout = BlockLayout([device.spec.capacity_bytes])
    layout.add_table("t", NUM_ROWS, ROW_BYTES)
    engine = IOEngine([device], IOEngineConfig(sub_block_reads=sub_block))
    if reader == "direct":
        return DirectIOReader(engine, layout), engine
    return MmapReader(engine, layout), engine


def _run_reads(reader, engine):
    # Distinct, scattered rows: the access-path comparison is about *cold*
    # reads (the row cache in front of these paths is evaluated elsewhere).
    indices = ZipfGenerator(NUM_ROWS, 1.05, seed=1).sample(NUM_READS, unique=True).tolist()
    latencies = []
    now = 0.0
    for index in indices:
        completions = reader.read_rows_batch("t", np.array([index], dtype=np.int64), now)
        latencies.append(float(completions[0]) - now)
        now += 50e-6
    return {
        "mean_latency_us": float(np.mean(latencies)) * 1e6,
        "bus_bytes_per_row": engine.stats.bytes_transferred / engine.stats.ios_submitted
        if engine.stats.ios_submitted
        else 0.0,
        "read_amplification": engine.stats.read_amplification,
        "fm_footprint_kib": reader.fm_footprint_bytes() / 1024,
        "host_memcpy_ms": engine.stats.memcpy_seconds * 1e3,
    }


def build_section41():
    rows = []
    for label, sub_block, reader in (
        ("DIRECT-IO + sub-block (deployed)", True, "direct"),
        ("DIRECT-IO, 4KiB reads", False, "direct"),
        ("mmap", True, "mmap"),
    ):
        access_path, engine = _setup(sub_block, reader)
        stats = _run_reads(access_path, engine)
        rows.append(
            [
                label,
                stats["mean_latency_us"],
                stats["bus_bytes_per_row"],
                stats["read_amplification"],
                stats["fm_footprint_kib"],
                stats["host_memcpy_ms"],
            ]
        )
    return rows


def bench_sec41_access_granularity(benchmark):
    rows = run_once(benchmark, build_section41)
    emit(
        "Section 4.1: access path comparison (paper: mmap ~3x latency, sub-block saves ~75% bus BW)",
        format_table(
            ["access path", "mean latency (us)", "bus bytes/row", "read amplification", "page-cache FM (KiB)", "host memcpy (ms)"],
            rows,
            float_fmt=".2f",
        ),
    )
    deployed, full_block, mmap = rows
    # Sub-block reads save >= 75% of the bus traffic of 4KiB reads.
    assert deployed[2] <= full_block[2] * 0.25
    # Full-block reads need the extra host memcpy, sub-block reads do not.
    assert deployed[5] == 0.0 and full_block[5] > 0.0
    # mmap pays roughly 3x the access latency of cold DIRECT-IO reads and
    # consumes FM for full pages.
    assert mmap[1] > deployed[1] * 1.5
    assert mmap[4] > 0.0 and deployed[4] == 0.0
