"""Appendix A.1: IRQ vs polling completions.

Polling removes the interrupt overhead and improves IOPS per core by ~50%,
but is hard to integrate with operator-based execution; the deployed system
uses IRQ completions.  This bench reports the modelled IOPS/core of both
modes and the measured CPU seconds for a fixed IO count.
"""

import numpy as np

from repro import format_table
from repro.sim.units import GB
from repro.storage import (
    BlockLayout,
    IOEngine,
    IOEngineConfig,
    IOMode,
    SimulatedDevice,
    optane_ssd_spec,
)

from _util import emit, run_once

NUM_IOS = 5_000


def _run(mode: IOMode):
    device = SimulatedDevice(optane_ssd_spec(64 * GB), seed=0)
    layout = BlockLayout([device.spec.capacity_bytes])
    layout.add_table("t", 10_000, 128)
    config = IOEngineConfig(mode=mode)
    engine = IOEngine([device], config)
    rows = np.arange(NUM_IOS, dtype=np.int64) % 10_000
    engine.submit_row_reads_batch("t", layout.locate_batch("t", rows), 0.0)
    return {
        "iops_per_core": config.iops_per_core(),
        "cpu_seconds": engine.stats.cpu_seconds,
    }


def build_appendix_a1():
    irq = _run(IOMode.IRQ)
    polling = _run(IOMode.POLLING)
    gain = polling["iops_per_core"] / irq["iops_per_core"] - 1.0
    return [
        ["IRQ", irq["iops_per_core"], irq["cpu_seconds"] * 1e3],
        ["polling", polling["iops_per_core"], polling["cpu_seconds"] * 1e3],
    ], gain


def bench_appendix_polling(benchmark):
    rows, gain = run_once(benchmark, build_appendix_a1)
    emit(
        "Appendix A.1: IRQ vs polling (paper: +50% IOPS/core with polling)",
        format_table(
            ["completion mode", "IOPS per core", f"CPU ms for {NUM_IOS} IOs"],
            rows,
            float_fmt=".1f",
        )
        + f"\nIOPS/core gain from polling: {gain:.1%}",
    )
    assert abs(gain - 0.5) < 0.01
    assert rows[1][2] < rows[0][2]
