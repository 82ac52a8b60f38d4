"""First-class memory tiers for the N-tier hierarchy.

The paper's design space (Table 1) is a memory-technology spectrum — DRAM,
CXL/DIMM 3DXP, Optane, ZSSD, NAND — but the original reproduction hard-coded
exactly two tiers (fast memory + one SM device technology).  This module
promotes tiers to pluggable objects:

* :class:`TierSpec` — the declarative description of one tier: technology,
  capacity, optional per-tier row-cache budget, device count.  Specs parse
  from compact strings (``"cxl:32GiB"``), mappings (``{"technology": "nand",
  "capacity": "1TiB", "cache": "4MiB"}``) or existing instances, so they
  travel through JSON scenario specs and CLI flags unchanged.
* :class:`MemoryTier` — the runtime protocol every tier implements: capacity
  and latency/bandwidth accounting, an optional per-tier row cache, and
  cumulative :class:`TierStats`.
* :class:`FastTier` / :class:`DeviceTier` — the two concrete kinds: byte-
  addressable fast memory (rows read at fast-memory cost) and
  device-backed tiers (a :class:`~repro.storage.block_layout.BlockLayout`
  over :class:`~repro.storage.device.SimulatedDevice` instances behind an
  io_uring-style engine).

An ordered list of tiers — fastest first — is what
:class:`~repro.hierarchy.chain.TierChain` serves lookups through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.cache.soa import ResolvedBatch
from repro.cache.unified import UnifiedRowCache
from repro.sim.state import COUNTER, Counters
from repro.sim.units import parse_size
from repro.storage.access import AccessPath, DirectIOReader, MmapReader
from repro.storage.block_layout import BlockLayout
from repro.storage.device import DeviceStats, SimulatedDevice
from repro.storage.io_engine import IOEngine, IOEngineConfig
from repro.storage.spec import TABLE1_SPECS, Technology

#: Keys a tier *entry* mapping may carry (``TierSpec.from_value`` input and
#: the addressable leaves of ``backend.options.tiers.N.<key>`` spec paths).
TIER_ENTRY_KEYS = frozenset({"technology", "capacity", "cache", "devices", "name"})

#: Short, CLI-friendly aliases for the Table 1 technologies.
TECHNOLOGY_ALIASES: Dict[str, Technology] = {
    "dram": Technology.DRAM,
    "nand": Technology.NAND_FLASH,
    "flash": Technology.NAND_FLASH,
    "optane": Technology.OPTANE_SSD,
    "zssd": Technology.ZSSD,
    "dimm": Technology.DIMM_3DXP,
    "scm": Technology.DIMM_3DXP,
    "cxl": Technology.CXL_3DXP,
}


def parse_technology(value: Union[str, Technology]) -> Technology:
    """Resolve a technology from an enum member, its value, name, or alias."""
    if isinstance(value, Technology):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in TECHNOLOGY_ALIASES:
            return TECHNOLOGY_ALIASES[lowered]
        try:
            return Technology(lowered)
        except ValueError:
            pass
        try:
            return Technology[value.strip().upper()]
        except KeyError:
            pass
    known = sorted(TECHNOLOGY_ALIASES) + [member.value for member in Technology]
    raise ValueError(f"unknown memory technology {value!r}; known: {known}")


@dataclass(frozen=True)
class TierSpec:
    """Declarative description of one memory tier.

    Attributes
    ----------
    technology:
        Table 1 technology family; ``Technology.DRAM`` marks a byte-
        addressable fast tier (no simulated devices).
    capacity_bytes:
        Placement budget of the tier.  For the fast tier this bounds how many
        user tables (or hot row ranges) are homed directly in fast memory
        (the DRAM budget of the paper's fixed FM/SM placement), so ``0`` is
        legal there.
    cache_bytes:
        Row-cache budget fronting slower tiers.  ``None`` keeps the tier's
        default (the configured unified-cache budget on tier 0, no cache on
        device tiers).
    num_devices:
        Device count for device-backed tiers (capacity is split evenly).
    name:
        Display name; defaults to the technology value.
    """

    technology: Technology
    capacity_bytes: int
    cache_bytes: Optional[int] = None
    num_devices: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "technology", parse_technology(self.technology))
        object.__setattr__(self, "capacity_bytes", parse_size(self.capacity_bytes))
        if self.cache_bytes is not None:
            object.__setattr__(self, "cache_bytes", parse_size(self.cache_bytes))
            if self.cache_bytes < 0:
                raise ValueError(f"cache_bytes must be non-negative: {self.cache_bytes}")
        if self.capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative: {self.capacity_bytes}")
        if not self.is_fast and self.capacity_bytes == 0:
            raise ValueError(
                f"device tier {self.technology.value!r} needs a positive capacity"
            )
        if self.num_devices <= 0:
            raise ValueError(f"num_devices must be positive: {self.num_devices}")
        if not self.is_fast and self.technology not in TABLE1_SPECS:
            raise ValueError(
                f"no Table 1 device spec for technology {self.technology.value!r}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.technology.value)

    @property
    def is_fast(self) -> bool:
        """True for byte-addressable fast memory (DRAM) tiers."""
        return self.technology is Technology.DRAM

    # ------------------------------------------------------------- conversion
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "technology": self.technology.value,
            "capacity": self.capacity_bytes,
        }
        if self.cache_bytes is not None:
            data["cache"] = self.cache_bytes
        if self.num_devices != 1:
            data["devices"] = self.num_devices
        if self.name != self.technology.value:
            data["name"] = self.name
        return data

    @classmethod
    def from_value(cls, value: Union["TierSpec", str, Mapping[str, Any]]) -> "TierSpec":
        """Build a spec from an instance, a ``tech:capacity[:cache]`` string,
        or a mapping with ``technology``/``capacity``/``cache``/``devices``."""
        if isinstance(value, TierSpec):
            return value
        if isinstance(value, str):
            # Positions are significant: "dram::64KiB" means default capacity
            # with a 64KiB cache, so empty segments keep their slot instead
            # of silently shifting later values left.
            parts = [part.strip() for part in value.split(":")]
            if not 1 <= len(parts) <= 3 or not parts[0]:
                raise ValueError(
                    f"tier string must be 'tech[:capacity[:cache]]', got {value!r}"
                )
            technology = parse_technology(parts[0])
            default_capacity = (
                0
                if technology is Technology.DRAM
                else TABLE1_SPECS[technology].capacity_bytes
            )
            capacity = (
                parse_size(parts[1])
                if len(parts) >= 2 and parts[1]
                else default_capacity
            )
            cache = parse_size(parts[2]) if len(parts) == 3 and parts[2] else None
            return cls(
                technology=technology,
                capacity_bytes=capacity,
                cache_bytes=cache,
            )
        if isinstance(value, Mapping):
            unknown = set(value) - TIER_ENTRY_KEYS
            if unknown:
                raise ValueError(
                    f"unknown tier keys {sorted(unknown)}; valid keys: "
                    f"{sorted(TIER_ENTRY_KEYS)}"
                )
            if "technology" not in value:
                raise ValueError(f"tier mapping needs a 'technology' key: {dict(value)}")
            capacity = value.get("capacity")
            technology = parse_technology(value["technology"])
            if capacity is None:
                capacity = (
                    0
                    if technology is Technology.DRAM
                    else TABLE1_SPECS[technology].capacity_bytes
                )
            cache = value.get("cache")
            return cls(
                technology=technology,
                capacity_bytes=parse_size(capacity),
                cache_bytes=None if cache is None else parse_size(cache),
                num_devices=int(value.get("devices", 1)),
                name=str(value.get("name", "")),
            )
        raise ValueError(f"cannot build a TierSpec from {value!r}")


def parse_tiers(
    value: Union[None, str, TierSpec, Mapping[str, Any], Iterable[Any]],
) -> Tuple[TierSpec, ...]:
    """Parse an ordered tier list (fastest first) from any accepted form.

    Accepts a comma-separated string (``"dram:4GiB,cxl:32GiB,nand:1TiB"``), a
    sequence of :meth:`TierSpec.from_value` inputs, or ``None`` (empty).
    Validates the hierarchy shape: the first tier must be fast memory (DRAM)
    and every later tier must be device-backed.
    """
    if value is None:
        return ()
    if isinstance(value, str):
        entries: Sequence[Any] = [part for part in value.split(",") if part.strip()]
    elif isinstance(value, (Mapping, TierSpec)):
        raise ValueError(
            "tiers must be an ordered list of tier entries, not a single "
            f"{type(value).__name__}"
        )
    else:
        try:
            entries = list(value)
        except TypeError:
            raise ValueError(
                f"tiers must be a comma string or an ordered list of tier "
                f"entries, got {type(value).__name__}"
            ) from None
    specs = tuple(TierSpec.from_value(entry) for entry in entries)
    if not specs:
        return ()
    if len(specs) < 2:
        raise ValueError(
            f"a memory hierarchy needs at least 2 tiers (fast + backing), got {len(specs)}"
        )
    if not specs[0].is_fast:
        raise ValueError(
            f"tier 0 must be fast memory (dram), got {specs[0].technology.value!r}"
        )
    for index, spec in enumerate(specs[1:], start=1):
        if spec.is_fast:
            raise ValueError(
                f"tier {index} must be a device tier, got fast memory; "
                f"only tier 0 is byte-addressable"
            )
    return specs


@dataclass
class TierStats(Counters):
    """Cumulative serving statistics of one tier.

    ``rows_served``/``bytes_served`` count rows whose bytes this tier
    provided — a cache hit at this tier, a device read from this tier, or a
    fast-memory read for rows homed on tier 0.  ``ios`` counts device reads
    issued against this tier's storage.
    """

    cache_probes: int = 0
    cache_hits: int = 0
    rows_served: int = 0
    bytes_served: int = 0
    ios: int = 0
    promoted_rows: int = 0

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_probes == 0:
            return 0.0
        return self.cache_hits / self.cache_probes


class MemoryTier:
    """Runtime protocol of one tier in the hierarchy.

    A tier owns its capacity/latency model, an optional per-tier row cache
    (fronting slower tiers), and cumulative :class:`TierStats`.  Device tiers
    additionally own their block layout, devices and IO engine.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"stats": COUNTER}

    spec: TierSpec
    stats: TierStats
    cache: Optional[UnifiedRowCache]

    @property
    def is_fast(self) -> bool:
        return self.spec.is_fast

    def probe_cache_run(self, batches: Sequence[ResolvedBatch]) -> None:
        """Probe this tier's row cache for a run of resolved batches, one
        probe per row key in order (:meth:`UnifiedRowCache.probe_run`);
        counts towards the tier's stats.  The batches' slots already say
        which rows hit."""
        assert self.cache is not None
        hit_masks = self.cache.probe_run(batches)
        stats = self.stats
        for hit_mask, (keys, _, row_len) in zip(hit_masks, batches):
            hits = int(np.count_nonzero(hit_mask))
            stats.cache_probes += int(keys.size)
            stats.cache_hits += hits
            stats.rows_served += hits
            stats.bytes_served += hits * row_len

    def probe_cache_and_promote(self, batch: ResolvedBatch, promote_mask: np.ndarray) -> None:
        """:meth:`probe_cache_run` for one batch whose rows marked in
        ``promote_mask`` are additionally filled right after their probe —
        the promotion of a row found in a slower cache, interleaved where
        the walk performs it.  The chain passes more than one row only when
        :meth:`UnifiedRowCache.promotion_hazard` cleared them; fills the
        cache rejects do not count as promoted."""
        assert self.cache is not None
        keys, slots, row_len = batch
        hit_mask, admitted = self.cache.probe_and_promote(keys, slots, row_len, promote_mask)
        num_hits = int(np.count_nonzero(hit_mask))
        self.stats.cache_probes += int(keys.size)
        self.stats.cache_hits += num_hits
        self.stats.rows_served += num_hits
        self.stats.bytes_served += num_hits * row_len
        self.stats.promoted_rows += admitted

    def fill_cache_batch(self, row_len: int, keys: np.ndarray) -> int:
        """Insert ``row_len``-byte rows read from a slower tier into this
        tier's cache, one insert per row key, in order.  Returns the number
        of admitted rows, which is what ``promoted_rows`` counts."""
        if self.cache is None:
            return 0
        admitted = self.cache.fill_batch(row_len, keys)
        self.stats.promoted_rows += admitted
        return admitted

    def cache_hit_seconds(self, num_bytes: int) -> float:
        """Media time to deliver a row from this tier's cache.

        The probe itself (hash + lookup metadata, host-resident) is charged
        separately by the chain; this is the cost of moving the cached bytes
        out of the tier's own memory.  Zero for fast-memory tiers — their
        transfer cost is folded into the host probe — and the device's
        byte-addressable access latency plus link time for device tiers.
        """
        return 0.0

    def fm_footprint_bytes(self) -> int:
        """Fast-memory bytes this tier consumes beyond homed data."""
        return 0

    def allocated_bytes(self) -> int:
        """Bytes of homed table data stored on this tier."""
        return 0


class FastTier(MemoryTier):
    """Tier 0: byte-addressable fast memory.

    Rows homed here are read at fast-memory cost, which the chain charges;
    the tier's cache is the unified row cache fronting every slower tier
    (the paper's FM row cache).
    """

    def __init__(self, spec: TierSpec, cache: Optional[UnifiedRowCache] = None) -> None:
        if not spec.is_fast:
            raise ValueError(f"FastTier needs a dram spec, got {spec.technology.value!r}")
        self.spec = spec
        self.cache = cache
        self.stats = TierStats()

    def fm_footprint_bytes(self) -> int:
        return self.cache.capacity_bytes if self.cache is not None else 0


def first_occurrence_groups(
    labels: np.ndarray, positions: np.ndarray
) -> Iterable[Tuple[int, np.ndarray]]:
    """Split ``positions`` by ``labels[positions]``: ``(label, members)`` in
    order of each label's first occurrence, members in input order."""
    while positions.size:
        label = int(labels[positions[0]])
        here = labels[positions] == label
        yield label, positions[here]
        positions = positions[~here]


#: Closes a table's segment-bound arrays, so that a row behind every real
#: segment resolves to an entry too -- one that starts after the row.
_ROW_LIMIT = np.array([np.iinfo(np.int64).max], dtype=np.int64)


@dataclass(frozen=True)
class _Segment:
    """One contiguous stored-row range of a table homed on a device tier."""

    key: str  # layout key (equals the table name for whole-table placements)
    start: int
    end: int


class DeviceTier(MemoryTier):
    """A device-backed tier: block layout + devices + IO engine + access path.

    ``device_seed_offset`` keeps device seeds globally unique across tiers
    (tier order matches construction order).
    """

    def __init__(
        self,
        spec: TierSpec,
        io_config: Optional[IOEngineConfig] = None,
        use_mmap: bool = False,
        seed: int = 0,
        device_seed_offset: int = 0,
    ) -> None:
        if spec.is_fast:
            raise ValueError("DeviceTier cannot be built from a dram spec")
        self.spec = spec
        per_device = spec.capacity_bytes // spec.num_devices
        if per_device <= 0:
            raise ValueError(
                f"tier {spec.name!r}: capacity {spec.capacity_bytes} too small for "
                f"{spec.num_devices} device(s)"
            )
        self.device_spec = TABLE1_SPECS[spec.technology].with_capacity(per_device)
        self.device_seeds = [
            seed + device_seed_offset + index for index in range(spec.num_devices)
        ]
        self.devices = [
            SimulatedDevice(self.device_spec, seed=device_seed)
            for device_seed in self.device_seeds
        ]
        self.layout = BlockLayout([d.spec.capacity_bytes for d in self.devices])
        self.io_engine = IOEngine(self.devices, io_config)
        self.access_path: AccessPath = (
            MmapReader(self.io_engine, self.layout)
            if use_mmap
            else DirectIOReader(self.io_engine, self.layout)
        )
        self.cache = UnifiedRowCache(spec.cache_bytes) if spec.cache_bytes else None
        self.stats = TierStats()
        # Per table: its segments in stored-row order, and their (starts,
        # ends) as arrays closed by _ROW_LIMIT.
        self._segments: Dict[str, List[_Segment]] = {}
        self._segment_bounds: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    # -------------------------------------------------------------- loading
    def add_segment(
        self,
        table_name: str,
        start: int,
        end: int,
        row_bytes: int,
        whole_table: bool = False,
    ) -> None:
        """Allocate stored rows ``[start, end)`` of a table, ``row_bytes``
        each, and count their load on the extent's device.

        Rows are laid out ``rows_per_block`` to a block
        (:class:`~repro.storage.block_layout.BlockLayout`), and the load is
        one whole-block write per block of the extent
        (:meth:`SimulatedDevice.load`).  Whole-table segments keep the bare
        table name as layout key, which is also the key of the per-table
        outstanding-IO limits.  Segments of one table must not overlap.
        """
        if end <= start:
            raise ValueError(f"segment [{start}, {end}) of {table_name!r} is empty")
        key = table_name if whole_table else f"{table_name}@{start}"
        homed = [*self._segments.get(table_name, []), _Segment(key=key, start=start, end=end)]
        homed.sort(key=lambda segment: segment.start)
        if any(below.end > above.start for below, above in zip(homed, homed[1:])):
            raise ValueError(f"segment [{start}, {end}) of {table_name!r} overlaps another")
        extent = self.layout.add_table(key, end - start, row_bytes)
        self._segments[table_name] = homed
        self._segment_bounds[table_name] = (
            np.append(np.array([segment.start for segment in homed], dtype=np.int64), _ROW_LIMIT),
            np.append(np.array([segment.end for segment in homed], dtype=np.int64), _ROW_LIMIT),
        )
        self.devices[extent.device_index].load(extent.first_lba, extent.num_blocks)

    # -------------------------------------------------------------- serving
    def read_rows_batch(
        self, table_name: str, stored_indices: np.ndarray, start_time: float
    ) -> np.ndarray:
        """Read rows from this tier's devices through its access path: each
        row's completion time, in input order.

        A batch inside one segment (layout key) -- every batch of a table
        homed whole -- passes straight through; otherwise the rows are
        grouped by segment and the groups submitted in order of first
        occurrence, rows in input order within each.  That sequence of
        engine submissions decides gating, RNG and stats effects.  A row not
        homed here is a ``KeyError`` before anything is read.
        """
        stored = np.asarray(stored_indices, dtype=np.int64)
        count = int(stored.size)
        starts, ends = self._segment_bounds.get(table_name, (_ROW_LIMIT, _ROW_LIMIT))
        segment_of = ends.searchsorted(stored, side="right")
        homed = starts[segment_of] <= stored
        if not bool(homed.all()):
            raise KeyError(
                f"stored row {int(stored[~homed][0])} of table {table_name!r} is not "
                f"homed on tier {self.spec.name!r}"
            )
        segments = self._segments[table_name]
        row_len = self.layout.extent(segments[0].key).row_bytes
        if count and int(segment_of.min()) == int(segment_of.max()):
            segment = segments[int(segment_of[0])]
            completions = self.access_path.read_rows_batch(
                segment.key, stored - segment.start, start_time
            )
        else:
            completions = np.empty(count, dtype=np.float64)
            for index, members in first_occurrence_groups(segment_of, np.arange(count)):
                segment = segments[index]
                completions[members] = self.access_path.read_rows_batch(
                    segment.key, stored[members] - segment.start, start_time
                )
        self.stats.ios += count
        self.stats.rows_served += count
        self.stats.bytes_served += count * row_len
        return completions

    def cache_hit_seconds(self, num_bytes: int) -> float:
        # A row cached in this tier's memory still crosses the tier's media:
        # one byte-addressable access latency plus the link transfer.  Without
        # this, a CXL-resident cache would serve at DRAM speed while billed
        # at CXL cost.
        return (
            self.device_spec.base_read_latency
            + num_bytes / self.device_spec.read_bus_bandwidth
        )

    # ----------------------------------------------------------- accounting
    def fm_footprint_bytes(self) -> int:
        # A device tier's row cache lives in its own (cheap) memory; only the
        # access path's page cache competes for fast memory.
        return self.access_path.fm_footprint_bytes()

    def allocated_bytes(self) -> int:
        return self.layout.total_allocated_bytes()

    def device_stats(self) -> DeviceStats:
        merged = DeviceStats()
        for device in self.devices:
            merged.merge(device.stats)
        return merged


#: Promotion policies for rows read from slower tiers (see TierChain).
PROMOTION_POLICIES = ("top", "all", "none")


def build_tiers(
    specs: Sequence[TierSpec],
    *,
    io_config: Optional[IOEngineConfig] = None,
    fast_cache: Optional[UnifiedRowCache] = None,
    use_mmap: bool = False,
    seed: int = 0,
) -> List[MemoryTier]:
    """Materialise runtime tiers from an ordered spec list (fastest first).

    Device seeds are offset by the running device count so every device in
    the hierarchy draws an independent (but reproducible) latency stream.
    """
    specs = parse_tiers(specs)
    tiers: List[MemoryTier] = []
    device_seed_offset = 0
    for spec in specs:
        if spec.is_fast:
            tiers.append(FastTier(spec, cache=fast_cache))
            continue
        tiers.append(
            DeviceTier(
                spec,
                io_config=io_config,
                use_mmap=use_mmap,
                seed=seed,
                device_seed_offset=device_seed_offset,
            )
        )
        device_seed_offset += spec.num_devices
    return tiers
