"""Figure 3: IOPS vs loaded latency for Nand Flash and Optane SSD.

The paper benchmarks each device with ~20 lookups per IO batch and shows that
Optane sustains far higher IOPS at far lower latency.  This bench drives the
discrete-event device model at increasing offered load and reports the
latency of a 20-lookup batch, alongside the analytic loaded-latency estimate.
"""

import numpy as np

from repro import format_table
from repro.sim.units import GB, MICROSECOND
from repro.storage import (
    LoadedLatencyModel,
    ScatterGatherList,
    SimulatedDevice,
    nand_flash_spec,
    optane_ssd_spec,
)

from _util import emit, run_once

LOOKUPS_PER_BATCH = 20
ROW_BYTES = 128
STEPS = 300


def step_sgls():
    """The scatter-gather list of each lookup of one 20-lookup step."""
    sgls = []
    for lookup in range(LOOKUPS_PER_BATCH):
        sgl = ScatterGatherList()
        sgl.add((lookup * ROW_BYTES) % 3968, ROW_BYTES)
        sgls.append(sgl)
    return sgls


def step_latencies(device: SimulatedDevice, offered_iops: float):
    """Latency of each of ``STEPS`` 20-lookup steps issued at the offered
    IOPS, each step one ``read_batch`` call with no queue-depth gate."""
    sgls = step_sgls()
    transferred = np.array([sgl.transferred_bytes(device.spec.supports_sub_block) for sgl in sgls])
    requested = sum(sgl.requested_bytes() for sgl in sgls)
    inter_arrival = LOOKUPS_PER_BATCH / offered_iops
    latencies = []
    now = 0.0
    for _ in range(STEPS):
        completions, _ = device.read_batch(now, transferred, requested)
        latencies.append(max(completions) - now)
        now += inter_arrival
    return latencies


def _measure_batch_latency(spec_factory, offered_iops: float, seed: int = 0) -> float:
    """Mean latency of a 20-lookup batch at the given offered IOPS."""
    device = SimulatedDevice(spec_factory(64 * GB), seed=seed)
    return float(np.mean(step_latencies(device, offered_iops)[50:]))


def build_figure3():
    rows = []
    for name, factory, fractions in (
        ("Nand Flash", nand_flash_spec, (0.1, 0.3, 0.5, 0.7, 0.9)),
        ("Optane SSD", optane_ssd_spec, (0.1, 0.3, 0.5, 0.7, 0.9)),
    ):
        spec = factory()
        model = LoadedLatencyModel(spec)
        for fraction in fractions:
            offered = fraction * spec.max_read_iops
            measured = _measure_batch_latency(factory, offered)
            analytic = model.expected_latency(offered, ROW_BYTES)
            rows.append(
                [
                    name,
                    offered / 1e3,
                    measured / MICROSECOND,
                    analytic / MICROSECOND,
                ]
            )
    return rows


def bench_fig3_device_iops_latency(benchmark):
    rows = run_once(benchmark, build_figure3)
    emit(
        "Figure 3: IOPS vs latency (20-lookup batches)",
        format_table(
            ["device", "offered kIOPS", "measured batch latency (us)", "analytic per-IO latency (us)"],
            rows,
            float_fmt=".1f",
        ),
    )
    nand = [r for r in rows if r[0] == "Nand Flash"]
    optane = [r for r in rows if r[0] == "Optane SSD"]
    # Optane offers ~8x the IOPS at ~an order of magnitude lower latency.
    assert optane[-1][1] > 4 * nand[-1][1]
    assert optane[0][2] < nand[0][2] / 3
    # Latency grows with load for both devices.
    assert nand[-1][3] > nand[0][3]
    assert optane[-1][3] > optane[0][3]
