"""Slow-memory (SM) storage substrate.

Simulates the Storage Class Memory devices from Table 1 of the paper (PCIe
Nand Flash, PCIe Optane SSD, PCIe ZSSD, DIMM 3DXP, CXL 3DXP), an io_uring-like
asynchronous IO engine with queue-depth control and polling vs IRQ cost
accounting, sub-block (SGL bit-bucket) reads, table-to-block layout, and the
endurance / model-update-interval model.
"""

from repro.storage.spec import (
    DeviceSpec,
    Technology,
    TABLE1_SPECS,
    cxl_3dxp_spec,
    dimm_3dxp_spec,
    nand_flash_spec,
    optane_ssd_spec,
    zssd_spec,
)
from repro.storage.latency_model import LoadedLatencyModel
from repro.storage.device import DeviceStats, SimulatedDevice
from repro.storage.block_layout import BlockLayout, RowLocation, RowLocationBatch
from repro.storage.sgl import ScatterGatherEntry, ScatterGatherList
from repro.storage.io_engine import IOEngine, IOEngineConfig, IOMode
from repro.storage.access import (
    AccessPath,
    DirectIOReader,
    MmapReader,
)
from repro.storage.endurance import EnduranceModel, update_interval_days

__all__ = [
    "DeviceSpec",
    "Technology",
    "TABLE1_SPECS",
    "nand_flash_spec",
    "optane_ssd_spec",
    "zssd_spec",
    "dimm_3dxp_spec",
    "cxl_3dxp_spec",
    "LoadedLatencyModel",
    "SimulatedDevice",
    "DeviceStats",
    "BlockLayout",
    "RowLocation",
    "RowLocationBatch",
    "ScatterGatherList",
    "ScatterGatherEntry",
    "IOEngine",
    "IOEngineConfig",
    "IOMode",
    "AccessPath",
    "DirectIOReader",
    "MmapReader",
    "EnduranceModel",
    "update_interval_days",
]
