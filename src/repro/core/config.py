"""Configuration (Tuning API) of the Software Defined Memory stack.

Every knob the paper exposes as a "Tuning API" is a field here: cache sizes
and partition counts (section 4.3), the pooled-embedding-cache length
threshold (4.4), outstanding-IO limits (4.1), the tier geometry that
placement (4.6) fills, de-pruning / de-quantisation at load time (4.5, A.5), the
access path (DIRECT-IO vs mmap) and inter-op parallelism (A.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.hierarchy.tier import PROMOTION_POLICIES, TierSpec, parse_tiers
from repro.sim.units import MIB
from repro.storage.io_engine import IOEngineConfig
from repro.storage.spec import Technology


class AccessPathKind(str, enum.Enum):
    """How the application reads SM data (section 4.1)."""

    DIRECT_IO = "direct_io"
    MMAP = "mmap"


#: The paper's host (Table 2), fastest first: a DRAM tier that homes no user
#: table and whose row cache is ``row_cache_capacity_bytes``, in front of
#: two 2 TB NAND Flash devices.
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec(technology=Technology.DRAM, capacity_bytes=0),
    TierSpec(
        technology=Technology.NAND_FLASH, capacity_bytes=4_000_000_000_000, num_devices=2
    ),
)

#: The row cache when neither ``row_cache_capacity_bytes`` nor tier 0's
#: ``cache`` sets it.
DEFAULT_ROW_CACHE_BYTES = 8 * MIB


@dataclass(frozen=True)
class SDMConfig:
    """Tuning parameters of one SDM deployment on one host.

    The geometry is one ordered tier list, ``tiers``, each tier with a
    capacity, and :func:`~repro.hierarchy.placement.compute_tiered_placement`
    homes the user tables with the highest bandwidth density on the fastest
    tier with room.  The Table 5 placements (section 4.6) are tier lists:

    * ``sm_only_with_cache`` -- :data:`DEFAULT_TIERS`: every user table on
      SM behind the row cache;
    * ``fixed_fm_sm`` with a DRAM budget ``B`` -- the default list with tier
      0's capacity set to ``B`` (the spec path ``tiers.0.capacity`` over
      ``[tier.to_dict() for tier in DEFAULT_TIERS]``);
    * ``per_table_cache`` -- the default list plus
      ``cache_disable_alpha_threshold=0.6``.

    Nothing else moves between them -- tables are laid out on the devices
    in model order whatever tier 0's budget was spent on -- so a placement
    comparison compares placements on the same host.

    Attributes
    ----------
    row_cache_capacity_bytes:
        FM byte budget of the unified row cache (section 4.3).  ``None``
        means tier 0's ``cache`` when it names one, else
        :data:`DEFAULT_ROW_CACHE_BYTES`; any value beside a tier-0 ``cache``
        is rejected, the default's included.  Its split between the
        memory-optimised and CPU-optimised organisations and the row length
        that routes between them are fixed by :mod:`repro.cache.unified`.
    pooled_cache_enabled / pooled_cache_capacity_bytes / pooled_len_threshold:
        Pooled embedding cache (section 4.4, Algorithm 1).  ``pooled_len_threshold``
        is the paper's ``LenThreshold``: only requests with more indices are
        considered for pooled caching.
    pinned_fm_tables:
        The "list of tables which should not be placed in SM" Tuning API
        (section 4.6); pinned tables are not charged to tier 0's budget.
    cache_disable_alpha_threshold:
        ``None`` (off), or the access-skew alpha below which a table gets
        the row cache disabled (low temporal locality) -- the
        ``per_table_cache`` placement.
    io:
        io_uring engine configuration (section 4.1).
    access_path:
        DIRECT-IO with an application cache (the paper's choice) or mmap.
    inter_op_parallelism:
        Overlap the IO of different embedding operators (appendix A.2).
    deprune_at_load / dequantize_at_load:
        SM-vs-FM capacity trade-offs (section 4.5 and appendix A.5).
    tiers:
        The memory hierarchy, fastest first, e.g.
        ``"dram:64KiB,cxl:4MiB,nand:1GiB"`` or a list of
        :class:`~repro.hierarchy.tier.TierSpec`/mapping entries.  Tier 0 is
        DRAM; its capacity is the FM placement budget and its cache the
        unified row cache.
    promotion:
        Which upper-tier row caches a row read from a slower tier is
        promoted into: ``"all"`` (every cache above the home tier — the
        default, so configured device-tier caches actually fill; identical
        to ``"top"`` whenever only tier 0 has a cache, as in the default
        list), ``"top"`` (the fastest cache only), or ``"none"``.
    split_rows:
        Allow a table that straddles a tier budget boundary to be row-split
        across tiers instead of homed whole on the first tier with room.
    """

    row_cache_capacity_bytes: Optional[int] = None

    pooled_cache_enabled: bool = True
    pooled_cache_capacity_bytes: int = 4 * MIB
    pooled_len_threshold: int = 1

    pinned_fm_tables: Tuple[str, ...] = ()
    cache_disable_alpha_threshold: Optional[float] = None

    io: IOEngineConfig = field(default_factory=IOEngineConfig)
    access_path: AccessPathKind = AccessPathKind.DIRECT_IO
    inter_op_parallelism: bool = True

    deprune_at_load: bool = False
    dequantize_at_load: bool = False

    tiers: Tuple[TierSpec, ...] = DEFAULT_TIERS
    promotion: str = "all"
    split_rows: bool = False

    seed: int = 0

    def __post_init__(self) -> None:
        tiers = parse_tiers(self.tiers)
        if not tiers:
            raise ValueError("tiers names no tiers; a hierarchy needs at least a dram tier")
        object.__setattr__(self, "tiers", tiers)
        if tiers[0].cache_bytes is not None and self.row_cache_capacity_bytes is not None:
            # Two spellings of one cache: one of them would be ignored.
            raise ValueError(
                f"tier 0 names a cache ({tiers[0].cache_bytes} bytes) and "
                f"row_cache_capacity_bytes is set ({self.row_cache_capacity_bytes}); "
                "set the row cache one way only"
            )
        if self.promotion not in PROMOTION_POLICIES:
            raise ValueError(
                f"promotion must be one of {PROMOTION_POLICIES}: {self.promotion!r}"
            )
        if self.row_cache_capacity_bytes is not None and self.row_cache_capacity_bytes <= 0:
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

    def with_overrides(self, **kwargs) -> "SDMConfig":
        """Return a copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)
