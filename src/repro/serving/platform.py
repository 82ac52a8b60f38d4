"""Hardware platform configurations (paper Table 7).

Each platform describes the host resources that bound serving throughput:
CPU compute, DRAM capacity and bandwidth, attached SM devices and optionally
an inference accelerator.  Power is expressed *relative to the platform used
as the baseline of each experiment*, which is how the paper reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.units import GB, TB
from repro.storage.spec import DeviceSpec, nand_flash_spec, optane_ssd_spec


@dataclass(frozen=True)
class AcceleratorSpec:
    """An inference accelerator card (see Lee et al. for the deployed parts)."""

    name: str
    memory_bytes: int
    flops_per_second: float
    memory_bandwidth: float

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive: {self.memory_bytes}")
        if self.flops_per_second <= 0:
            raise ValueError(f"flops_per_second must be positive: {self.flops_per_second}")
        if self.memory_bandwidth <= 0:
            raise ValueError(f"memory_bandwidth must be positive: {self.memory_bandwidth}")


@dataclass(frozen=True)
class HostPlatform:
    """One host type deployable in the data centre."""

    name: str
    cpu_sockets: int
    dram_bytes: int
    cpu_flops_per_second: float
    dram_bandwidth: float
    ssds: Tuple[DeviceSpec, ...] = ()
    accelerator: Optional[AcceleratorSpec] = None
    relative_power: float = 1.0
    ssd_power_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.cpu_sockets <= 0:
            raise ValueError(f"cpu_sockets must be positive: {self.cpu_sockets}")
        if self.dram_bytes <= 0:
            raise ValueError(f"dram_bytes must be positive: {self.dram_bytes}")
        if self.cpu_flops_per_second <= 0:
            raise ValueError(f"cpu_flops_per_second must be positive: {self.cpu_flops_per_second}")
        if self.dram_bandwidth <= 0:
            raise ValueError(f"dram_bandwidth must be positive: {self.dram_bandwidth}")
        if self.relative_power <= 0:
            raise ValueError(f"relative_power must be positive: {self.relative_power}")

    # --------------------------------------------------------------- derived
    @property
    def compute_flops(self) -> float:
        """Compute available for the MLPs (accelerator if present, else CPU)."""
        if self.accelerator is not None:
            return self.accelerator.flops_per_second
        return self.cpu_flops_per_second

    @property
    def fast_memory_bandwidth(self) -> float:
        """Bandwidth serving item embeddings (accelerator memory if present)."""
        if self.accelerator is not None:
            return self.accelerator.memory_bandwidth
        return self.dram_bandwidth

    @property
    def total_sm_capacity_bytes(self) -> int:
        return sum(ssd.capacity_bytes for ssd in self.ssds)

    @property
    def power_with_ssds(self) -> float:
        """Relative host power including attached SM devices."""
        return self.relative_power * (1.0 + self.ssd_power_fraction * len(self.ssds))


# --------------------------------------------------------------------------
# Table 7 platform configurations.  All CPUs are Xeon-class; compute and
# bandwidth figures are representative public numbers, and relative power is
# normalised the way the paper's result tables normalise it.
# --------------------------------------------------------------------------

_XEON_FLOPS = 1.5e12
_XEON_DRAM_BW = 80.0e9

#: Dual-socket, 256 GB DRAM, no SSD, no accelerator (the M1 baseline host).
HW_L = HostPlatform(
    name="HW-L",
    cpu_sockets=2,
    dram_bytes=256 * GB,
    cpu_flops_per_second=2 * _XEON_FLOPS,
    dram_bandwidth=2 * _XEON_DRAM_BW,
    relative_power=1.0,
)

#: Single-socket, 64 GB DRAM helper host used by the scale-out deployment.
HW_S = HostPlatform(
    name="HW-S",
    cpu_sockets=1,
    dram_bytes=64 * GB,
    cpu_flops_per_second=_XEON_FLOPS,
    dram_bandwidth=_XEON_DRAM_BW,
    relative_power=0.25,
)

#: Single-socket, 64 GB DRAM, 2x 2 TB Nand Flash (the M1 SDM host).
HW_SS = HostPlatform(
    name="HW-SS",
    cpu_sockets=1,
    dram_bytes=64 * GB,
    cpu_flops_per_second=_XEON_FLOPS,
    dram_bandwidth=_XEON_DRAM_BW,
    ssds=(nand_flash_spec(2 * TB), nand_flash_spec(2 * TB)),
    relative_power=0.4,
    ssd_power_fraction=0.0,
)

_ACCELERATOR = AcceleratorSpec(
    name="inference-accelerator",
    memory_bytes=96 * GB,
    flops_per_second=30.0e12,
    memory_bandwidth=600.0e9,
)

#: Accelerator host with 2x 1 TB Nand Flash (M2 with Nand SDM).
HW_AN = HostPlatform(
    name="HW-AN",
    cpu_sockets=1,
    dram_bytes=64 * GB,
    cpu_flops_per_second=_XEON_FLOPS,
    dram_bandwidth=_XEON_DRAM_BW,
    ssds=(nand_flash_spec(1 * TB), nand_flash_spec(1 * TB)),
    accelerator=_ACCELERATOR,
    relative_power=1.0,
    ssd_power_fraction=0.0,
)

#: Accelerator host with 2x 0.4 TB Optane SSD (M2 with Optane SDM).
HW_AO = HostPlatform(
    name="HW-AO",
    cpu_sockets=1,
    dram_bytes=64 * GB,
    cpu_flops_per_second=_XEON_FLOPS,
    dram_bandwidth=_XEON_DRAM_BW,
    ssds=(optane_ssd_spec(400 * GB), optane_ssd_spec(400 * GB)),
    accelerator=_ACCELERATOR,
    relative_power=1.0,
    ssd_power_fraction=0.0,
)

_FUTURE_ACCELERATOR = AcceleratorSpec(
    name="future-accelerator",
    memory_bytes=256 * GB,
    flops_per_second=150.0e12,
    memory_bandwidth=2.0e12,
)

#: Projected future accelerator platform without SDM (M3 baseline).
HW_FA = HostPlatform(
    name="HW-FA",
    cpu_sockets=2,
    dram_bytes=512 * GB,
    cpu_flops_per_second=2 * _XEON_FLOPS,
    dram_bandwidth=2 * _XEON_DRAM_BW,
    accelerator=_FUTURE_ACCELERATOR,
    relative_power=1.0,
)

#: The same platform with 9 Optane SSDs for multi-tenant SDM serving (M3).
HW_FAO = HostPlatform(
    name="HW-FAO",
    cpu_sockets=2,
    dram_bytes=512 * GB,
    cpu_flops_per_second=2 * _XEON_FLOPS,
    dram_bandwidth=2 * _XEON_DRAM_BW,
    ssds=tuple(optane_ssd_spec(400 * GB) for _ in range(9)),
    accelerator=_FUTURE_ACCELERATOR,
    relative_power=1.0,
    ssd_power_fraction=0.00111,
)

ALL_PLATFORMS = {
    platform.name: platform
    for platform in (HW_L, HW_S, HW_SS, HW_AN, HW_AO, HW_FA, HW_FAO)
}
