"""Device specifications for the slow-memory tier (paper Table 1).

Each technology is characterised by the parameters the paper tracks: random
read IOPS, loaded access latency, endurance (drive writes per day), access
granularity, relative cost per GB versus DRAM, and sourcing.  The specs also
carry the power numbers used by the serving-level power model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict

from repro.sim.units import GB, KIB, MICROSECOND, TB


class Technology(str, enum.Enum):
    """SM technology families considered in the paper."""

    NAND_FLASH = "pcie_nand_flash"
    OPTANE_SSD = "pcie_3dxp_optane"
    ZSSD = "pcie_zssd"
    DIMM_3DXP = "dimm_3dxp"
    CXL_3DXP = "cxl_3dxp"
    DRAM = "dram"


@dataclass(frozen=True)
class DeviceSpec:
    """Static characteristics of a slow-memory device.

    Attributes
    ----------
    name:
        Human readable device name.
    technology:
        Technology family (Table 1 row).
    capacity_bytes:
        Usable capacity.
    max_read_iops:
        Random read IOPS ceiling at the native access granularity.
    base_read_latency:
        Unloaded single-IO read latency in seconds.
    access_granularity_bytes:
        Minimum transfer unit without the sub-block (SGL bit bucket) read
        support described in section 4.1.1 of the paper.
    supports_sub_block:
        Whether the device/driver combination supports arbitrary granularity
        reads down to a DWORD (4 bytes).  This is the kernel + NVMe SGL
        bit-bucket feature the paper contributes.
    endurance_dwpd:
        Drive writes per day the device sustains.
    relative_cost_per_gb:
        Cost per GB relative to DDR4 DRAM (DRAM == 1.0).
    sourcing:
        "multi" or "single" vendor availability.
    internal_parallelism:
        Number of independent internal channels used by the queueing model.
    queueing_exponent:
        Shape of the loaded-latency curve: lower values make latency climb at
        moderate utilisation (Nand Flash, whose controllers suffer long
        latency well before the IOPS ceiling), higher values keep latency
        flat until near saturation (Optane / CXL, Figure 3).
    max_queue_depth:
        Device-side queue depth; submissions beyond it queue in the host.
    tail_latency_probability / tail_latency:
        Occasional long-tail read latency (pronounced for Nand Flash, see the
        p99 discussion in section 5.1).
    read_bus_bandwidth:
        PCIe/CXL link bandwidth available for read transfers (bytes/second).
    write_bandwidth:
        Sustained sequential write bandwidth, relevant during model update.
    active_power_watts / idle_power_watts:
        Device power draw used by the fleet power model.
    """

    name: str
    technology: Technology
    capacity_bytes: int
    max_read_iops: float
    base_read_latency: float
    access_granularity_bytes: int
    supports_sub_block: bool
    endurance_dwpd: float
    relative_cost_per_gb: float
    sourcing: str
    internal_parallelism: int = 8
    queueing_exponent: float = 4.0
    max_queue_depth: int = 256
    tail_latency_probability: float = 0.0
    tail_latency: float = 0.0
    read_bus_bandwidth: float = 3.2e9
    write_bandwidth: float = 1.0e9
    active_power_watts: float = 10.0
    idle_power_watts: float = 4.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_bytes}")
        if self.max_read_iops <= 0:
            raise ValueError(f"max_read_iops must be positive: {self.max_read_iops}")
        if self.base_read_latency <= 0:
            raise ValueError(f"base_read_latency must be positive: {self.base_read_latency}")
        if self.access_granularity_bytes <= 0:
            raise ValueError(
                f"access_granularity_bytes must be positive: {self.access_granularity_bytes}"
            )
        if self.internal_parallelism <= 0:
            raise ValueError(
                f"internal_parallelism must be positive: {self.internal_parallelism}"
            )
        if self.queueing_exponent <= 0:
            raise ValueError(
                f"queueing_exponent must be positive: {self.queueing_exponent}"
            )
        if not 0.0 <= self.tail_latency_probability <= 1.0:
            raise ValueError(
                "tail_latency_probability must be a probability, got "
                f"{self.tail_latency_probability}"
            )

    def with_capacity(self, capacity_bytes: int) -> "DeviceSpec":
        """Return a copy of the spec with a different capacity."""
        return replace(self, capacity_bytes=capacity_bytes)

    def service_time_per_io(self) -> float:
        """Per-IO occupancy of one internal channel so that aggregate
        throughput across channels equals ``max_read_iops``."""
        return self.internal_parallelism / self.max_read_iops


def nand_flash_spec(capacity_bytes: int = 2 * TB) -> DeviceSpec:
    """PCIe Nand Flash SSD (Table 1, row 1): 0.5M IOPS, O(100us), 4K blocks."""
    return DeviceSpec(
        name="PCIe Nand Flash",
        technology=Technology.NAND_FLASH,
        capacity_bytes=capacity_bytes,
        max_read_iops=0.5e6,
        base_read_latency=90 * MICROSECOND,
        access_granularity_bytes=4 * KIB,
        supports_sub_block=True,
        endurance_dwpd=5.0,
        relative_cost_per_gb=1.0 / 30.0,
        sourcing="multi",
        internal_parallelism=16,
        queueing_exponent=1.5,
        max_queue_depth=256,
        tail_latency_probability=2e-3,
        tail_latency=2e-3,
        read_bus_bandwidth=3.2e9,
        write_bandwidth=1.8e9,
        active_power_watts=12.0,
        idle_power_watts=5.0,
    )


def optane_ssd_spec(capacity_bytes: int = 400 * GB) -> DeviceSpec:
    """PCIe 3DXP Optane SSD (Table 1, row 2): 4M IOPS at 512B, O(10us)."""
    return DeviceSpec(
        name="PCIe 3DXP (Optane)",
        technology=Technology.OPTANE_SSD,
        capacity_bytes=capacity_bytes,
        max_read_iops=4.0e6,
        base_read_latency=10 * MICROSECOND,
        access_granularity_bytes=512,
        supports_sub_block=True,
        endurance_dwpd=100.0,
        relative_cost_per_gb=1.0 / 5.0,
        sourcing="single",
        internal_parallelism=32,
        queueing_exponent=8.0,
        max_queue_depth=1024,
        tail_latency_probability=1e-4,
        tail_latency=200 * MICROSECOND,
        read_bus_bandwidth=6.4e9,
        write_bandwidth=2.2e9,
        active_power_watts=14.0,
        idle_power_watts=5.0,
    )


def zssd_spec(capacity_bytes: int = 800 * GB) -> DeviceSpec:
    """PCIe ZSSD (Table 1, row 3): 1M IOPS, better latency than Nand Flash."""
    return DeviceSpec(
        name="PCIe ZSSD",
        technology=Technology.ZSSD,
        capacity_bytes=capacity_bytes,
        max_read_iops=1.0e6,
        base_read_latency=60 * MICROSECOND,
        access_granularity_bytes=4 * KIB,
        supports_sub_block=True,
        endurance_dwpd=5.0,
        relative_cost_per_gb=1.0 / 10.0,
        sourcing="single",
        internal_parallelism=16,
        queueing_exponent=2.0,
        max_queue_depth=256,
        tail_latency_probability=1e-3,
        tail_latency=1e-3,
        read_bus_bandwidth=3.2e9,
        write_bandwidth=1.8e9,
        active_power_watts=12.0,
        idle_power_watts=5.0,
    )


def dimm_3dxp_spec(capacity_bytes: int = 512 * GB) -> DeviceSpec:
    """DIMM 3DXP (Optane persistent memory): 64B granularity, sub-us latency.

    The paper notes it impacts the memory bandwidth available to the CPU; the
    serving model accounts for that with a host memory-bandwidth penalty.
    """
    return DeviceSpec(
        name="DIMM 3DXP (Optane)",
        technology=Technology.DIMM_3DXP,
        capacity_bytes=capacity_bytes,
        max_read_iops=20.0e6,
        base_read_latency=0.3 * MICROSECOND,
        access_granularity_bytes=64,
        supports_sub_block=True,
        endurance_dwpd=300.0,
        relative_cost_per_gb=1.0 / 3.0,
        sourcing="single",
        internal_parallelism=16,
        queueing_exponent=12.0,
        max_queue_depth=64,
        read_bus_bandwidth=8.0e9,
        write_bandwidth=2.0e9,
        active_power_watts=15.0,
        idle_power_watts=6.0,
    )


def cxl_3dxp_spec(capacity_bytes: int = 1 * TB) -> DeviceSpec:
    """CXL-attached 3DXP: >10M IOPS, ~0.5us latency, 64-128B granularity."""
    return DeviceSpec(
        name="CXL 3DXP",
        technology=Technology.CXL_3DXP,
        capacity_bytes=capacity_bytes,
        max_read_iops=12.0e6,
        base_read_latency=0.6 * MICROSECOND,
        access_granularity_bytes=64,
        supports_sub_block=True,
        endurance_dwpd=300.0,
        relative_cost_per_gb=1.0 / 3.0,
        sourcing="single",
        internal_parallelism=32,
        queueing_exponent=12.0,
        max_queue_depth=256,
        read_bus_bandwidth=25.0e9,
        write_bandwidth=8.0e9,
        active_power_watts=18.0,
        idle_power_watts=7.0,
    )


#: Table 1 of the paper, keyed by technology.
TABLE1_SPECS: Dict[Technology, DeviceSpec] = {
    Technology.NAND_FLASH: nand_flash_spec(),
    Technology.OPTANE_SSD: optane_ssd_spec(),
    Technology.ZSSD: zssd_spec(),
    Technology.DIMM_3DXP: dimm_3dxp_spec(),
    Technology.CXL_3DXP: cxl_3dxp_spec(),
}
