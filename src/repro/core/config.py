"""Configuration (Tuning API) of the Software Defined Memory stack.

Every knob the paper exposes as a "Tuning API" is a field here: cache sizes
and partition counts (section 4.3), the pooled-embedding-cache length
threshold (4.4), outstanding-IO limits (4.1), placement policy and DRAM
budget (4.6), de-pruning / de-quantisation at load time (4.5, A.5), the
access path (DIRECT-IO vs mmap) and inter-op parallelism (A.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from repro.hierarchy.tier import PROMOTION_POLICIES, TierSpec, parse_tiers
from repro.sim.units import MIB
from repro.storage.io_engine import IOEngineConfig
from repro.storage.spec import TABLE1_SPECS, Technology


class PlacementPolicy(str, enum.Enum):
    """Placement strategies from Table 5 of the paper (section 4.6).

    Item tables always stay in fast memory; the policies differ in what
    happens to the user tables.
    """

    #: Every user table on SM behind the FM row cache.
    SM_ONLY_WITH_CACHE = "sm_only_with_cache"
    #: ``dram_budget_bytes`` of FM homes the tables with the highest
    #: bandwidth density (bytes/query per byte of capacity); the rest go to SM.
    FIXED_FM_SM = "fixed_fm_sm"
    #: Like SM-only, but tables with low temporal locality bypass the row
    #: cache (caching them only pollutes it).
    PER_TABLE_CACHE = "per_table_cache"


class AccessPathKind(str, enum.Enum):
    """How the application reads SM data (section 4.1)."""

    DIRECT_IO = "direct_io"
    MMAP = "mmap"


#: The fields a ``tiers`` list replaces (:meth:`SDMConfig.resolved_tiers`).
_TWO_TIER_FIELDS = frozenset(
    {"device_technology", "num_devices", "device_capacity_bytes", "dram_budget_bytes"}
)


@dataclass(frozen=True)
class SDMConfig:
    """Tuning parameters of one SDM deployment on one host.

    There is one placement model: an ordered tier list, each tier with a
    capacity, and :func:`~repro.hierarchy.placement.compute_tiered_placement`
    homing the user tables with the highest bandwidth density on the fastest
    tier with room.  The device fields, ``dram_budget_bytes`` and
    ``placement_policy`` are a spelling of a two-tier ``tiers`` list, which
    :meth:`resolved_tiers` writes out: a ``dram`` tier whose cache is
    ``row_cache_capacity_bytes`` in front of one device tier of
    ``num_devices`` x ``device_capacity_bytes``.  The Table 5 policies only
    set the ``dram`` tier's capacity and the cache threshold:
    ``sm_only_with_cache`` is capacity 0, ``fixed_fm_sm`` is capacity
    ``dram_budget_bytes``, ``per_table_cache`` is capacity 0 plus
    ``cache_disable_alpha_threshold``.  Nothing else moves between policies
    -- tables are laid out on the devices in model order whatever the policy
    -- so a policy comparison compares placements on the same host.

    Attributes
    ----------
    device_technology / num_devices / device_capacity_bytes:
        The SM devices attached to the host (e.g. 2x 2 TB Nand Flash on
        HW-SS, 2x 400 GB Optane on HW-AO).
    row_cache_capacity_bytes:
        FM byte budget of the unified row cache (section 4.3).  Its split
        between the memory-optimised and CPU-optimised organisations and
        the row length that routes between them are fixed by
        :mod:`repro.cache.unified`.
    pooled_cache_enabled / pooled_cache_capacity_bytes / pooled_len_threshold:
        Pooled embedding cache (section 4.4, Algorithm 1).  ``pooled_len_threshold``
        is the paper's ``LenThreshold``: only requests with more indices are
        considered for pooled caching.
    placement_policy / dram_budget_bytes / pinned_fm_tables:
        Placement strategy (section 4.6, Table 5).  ``dram_budget_bytes`` is
        read under ``fixed_fm_sm`` only.  ``pinned_fm_tables`` is the "list
        of tables which should not be placed in SM" Tuning API; pinned tables
        are not charged to the budget.
    cache_disable_alpha_threshold:
        For the PER_TABLE_CACHE policy: tables whose access-skew alpha is
        below this get the row cache disabled (low temporal locality).
    io:
        io_uring engine configuration (section 4.1).
    access_path:
        DIRECT-IO with an application cache (the paper's choice) or mmap.
    inter_op_parallelism:
        Overlap the IO of different embedding operators (appendix A.2).
    deprune_at_load / dequantize_at_load:
        SM-vs-FM capacity trade-offs (section 4.5 and appendix A.5).
    tiers:
        Optional N-tier memory hierarchy (fastest first), e.g.
        ``"dram:64KiB,cxl:4MiB,nand:1GiB"`` or a list of
        :class:`~repro.hierarchy.tier.TierSpec`/mapping entries.  When set,
        the device fields, ``dram_budget_bytes`` and ``placement_policy=
        "fixed_fm_sm"`` are rejected and tier 0's capacity is the FM
        placement budget; ``placement_policy`` then only contributes the
        PER_TABLE_CACHE cache-disable threshold.
    promotion:
        Which upper-tier row caches a row read from a slower tier is
        promoted into: ``"all"`` (every cache above the home tier — the
        default, so configured device-tier caches actually fill; identical
        to ``"top"`` whenever only tier 0 has a cache, which includes every
        config without ``tiers``), ``"top"`` (the fastest cache only), or
        ``"none"``.
    split_rows:
        With ``tiers``: allow a table that straddles a tier budget boundary
        to be row-split across tiers instead of homed whole on the first
        tier with room.
    """

    device_technology: Technology = Technology.NAND_FLASH
    num_devices: int = 2
    device_capacity_bytes: Optional[int] = None

    row_cache_capacity_bytes: int = 8 * MIB

    pooled_cache_enabled: bool = True
    pooled_cache_capacity_bytes: int = 4 * MIB
    pooled_len_threshold: int = 1

    placement_policy: PlacementPolicy = PlacementPolicy.SM_ONLY_WITH_CACHE
    dram_budget_bytes: int = 0
    pinned_fm_tables: Tuple[str, ...] = ()
    cache_disable_alpha_threshold: float = 0.6

    io: IOEngineConfig = field(default_factory=IOEngineConfig)
    access_path: AccessPathKind = AccessPathKind.DIRECT_IO
    inter_op_parallelism: bool = True

    deprune_at_load: bool = False
    dequantize_at_load: bool = False

    tiers: Optional[Tuple[TierSpec, ...]] = None
    promotion: str = "all"
    split_rows: bool = False

    seed: int = 0

    def __post_init__(self) -> None:
        # The policy's string value is accepted too.
        object.__setattr__(self, "placement_policy", PlacementPolicy(self.placement_policy))
        if self.tiers is not None:
            parsed = parse_tiers(self.tiers)
            if not parsed:
                # An explicitly-set but empty hierarchy is a malformed
                # config, not a request for the two-tier default.
                raise ValueError(
                    "tiers was set but names no tiers; omit it (or pass None) "
                    "for the two-tier stack the device fields describe"
                )
            object.__setattr__(self, "tiers", parsed)
            # The tier list replaces the two-tier spelling; a field of that
            # spelling set alongside it would be silently ignored.
            spelled = [
                f.name
                for f in fields(self)
                if f.name in _TWO_TIER_FIELDS and getattr(self, f.name) != f.default
            ]
            if self.placement_policy is PlacementPolicy.FIXED_FM_SM:
                spelled.append("placement_policy='fixed_fm_sm'")
            if spelled:
                raise ValueError(
                    f"with tiers set, {', '.join(spelled)} would be ignored; "
                    "drop them or describe that geometry in tiers"
                )
        if self.promotion not in PROMOTION_POLICIES:
            raise ValueError(
                f"promotion must be one of {PROMOTION_POLICIES}: {self.promotion!r}"
            )
        if self.split_rows and self.tiers is None:
            raise ValueError(
                "split_rows requires an explicit tiers hierarchy; the device "
                "fields describe a stack that places whole tables only"
            )
        if self.num_devices <= 0:
            raise ValueError(f"num_devices must be positive: {self.num_devices}")
        if self.device_capacity_bytes is not None and self.device_capacity_bytes <= 0:
            raise ValueError(
                f"device_capacity_bytes must be positive: {self.device_capacity_bytes}"
            )
        if self.row_cache_capacity_bytes <= 0:
            raise ValueError(
                f"row_cache_capacity_bytes must be positive: {self.row_cache_capacity_bytes}"
            )
        if self.pooled_cache_capacity_bytes <= 0:
            raise ValueError(
                f"pooled_cache_capacity_bytes must be positive: {self.pooled_cache_capacity_bytes}"
            )
        if self.pooled_len_threshold < 0:
            raise ValueError(
                f"pooled_len_threshold must be non-negative: {self.pooled_len_threshold}"
            )
        if self.dram_budget_bytes < 0:
            raise ValueError(f"dram_budget_bytes must be non-negative: {self.dram_budget_bytes}")

    def with_overrides(self, **kwargs) -> "SDMConfig":
        """Return a copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)

    def resolved_tiers(self) -> Tuple[TierSpec, ...]:
        """The tier geometry this config describes (fastest first).

        With ``tiers`` set, that list verbatim; otherwise the two-tier list
        the device fields and the placement policy spell: a DRAM tier whose
        placement budget is ``dram_budget_bytes`` under FIXED_FM_SM and 0
        under the other policies, and whose row cache is the unified cache,
        plus one device tier built from the device fields.
        """
        if self.tiers is not None:
            return self.tiers
        device_capacity = (
            self.device_capacity_bytes
            if self.device_capacity_bytes is not None
            else TABLE1_SPECS[self.device_technology].capacity_bytes
        )
        return (
            TierSpec(
                technology=Technology.DRAM,
                capacity_bytes=(
                    self.dram_budget_bytes
                    if self.placement_policy is PlacementPolicy.FIXED_FM_SM
                    else 0
                ),
                cache_bytes=self.row_cache_capacity_bytes,
            ),
            TierSpec(
                technology=self.device_technology,
                capacity_bytes=device_capacity * self.num_devices,
                num_devices=self.num_devices,
            ),
        )
