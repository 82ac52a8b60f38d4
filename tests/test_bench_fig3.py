"""The Figure 3 benchmark times each 20-lookup step with one
``SimulatedDevice.read_batch`` call; the same steps as one ``schedule_read``
per lookup, with the same scatter-gather lists, give the same figure."""

import pytest

from repro.sim.units import GB
from repro.storage import SimulatedDevice, nand_flash_spec, optane_ssd_spec

from helpers import load_script


@pytest.fixture(scope="module")
def fig3():
    return load_script("benchmarks/bench_fig3_device_iops_latency.py")


def scalar_step_latencies(fig3, device, offered_iops):
    """``fig3.step_latencies`` as one ``schedule_read`` per lookup."""
    inter_arrival = fig3.LOOKUPS_PER_BATCH / offered_iops
    latencies = []
    now = 0.0
    for _ in range(fig3.STEPS):
        completions = [
            device.schedule_read(lookup % device.num_blocks, sgl, now)[0]
            for lookup, sgl in enumerate(fig3.step_sgls())
        ]
        latencies.append(max(completions) - now)
        now += inter_arrival
    return latencies


@pytest.mark.parametrize("load", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("spec_factory", [nand_flash_spec, optane_ssd_spec])
def test_each_row_is_bit_equal_to_per_io_reads(fig3, spec_factory, load):
    batched = SimulatedDevice(spec_factory(64 * GB), seed=0)
    scalar = SimulatedDevice(spec_factory(64 * GB), seed=0)
    offered = load * batched.spec.max_read_iops
    latencies = fig3.step_latencies(batched, offered)
    assert len(latencies) == fig3.STEPS
    assert latencies == scalar_step_latencies(fig3, scalar, offered)
    assert batched.stats == scalar.stats
    assert batched.channel_free.tolist() == scalar.channel_free.tolist()
    assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state
