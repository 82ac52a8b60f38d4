"""Placement of tables (or row ranges) across an N-tier hierarchy.

The one placement algorithm (section 4.6, Table 5): item tables and pinned
tables stay in fast memory, and each user table — or, at row granularity,
hotness-ranked row ranges within a table — is assigned to the fastest tier
with room, in descending bandwidth-density order (bytes/query per byte of
capacity).  The paper's policies are tier budgets for it:
``sm_only_with_cache`` is a zero-capacity tier 0, ``fixed_fm_sm`` gives
tier 0 the DRAM budget, and ``per_table_cache`` adds the cache-disable
threshold (see :class:`repro.core.config.SDMConfig`).

Two granularities:

* ``table`` (default) — every table is homed whole on one tier.
* ``rows`` — a table that does not fit the remaining budget of a tier is
  split: the hottest rows fill the fast tier and the tail cascades down.
  With a ``row_hotness`` profile (row ids ranked hottest-first, e.g. from
  ``Session.access_trace``) the split follows measured popularity and the
  table is stored rank-ordered behind a mapping tensor; without one the
  split is by row-id range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dlrm.embedding import EmbeddingTableSpec
from repro.hierarchy.tier import TierSpec, parse_tiers
from repro.sim.units import BLOCK_SIZE


@dataclass(frozen=True)
class TierSegment:
    """One contiguous stored-row range ``[start, end)`` homed on ``tier``."""

    tier: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.tier < 0:
            raise ValueError(f"tier index must be non-negative: {self.tier}")
        if not 0 <= self.start < self.end:
            raise ValueError(f"segment [{self.start}, {self.end}) is empty or negative")

    @property
    def num_rows(self) -> int:
        return self.end - self.start


@dataclass
class TieredTablePlacement:
    """Placement decision for one table across the hierarchy.

    ``segments`` cover the table's stored-row space contiguously and in
    order.  A whole-table placement is a single segment.  ``rank_order``
    (optional, row-split placements only) is the hotness permutation: stored
    row ``s`` holds the bytes of original row ``rank_order[s]``.
    """

    table_name: str
    segments: Tuple[TierSegment, ...]
    cache_enabled: bool
    rank_order: Optional[np.ndarray] = None
    # What tiers_of_rows looks rows up in, rebuilt whenever ``segments`` is
    # assigned (a whole-table placement is resolved to the rows stored).
    _segment_ends: np.ndarray = field(init=False, repr=False, compare=False)
    _segment_tiers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"table {self.table_name!r} needs at least one segment")
        cursor = 0
        for segment in self.segments:
            if segment.start != cursor:
                raise ValueError(
                    f"table {self.table_name!r}: segments must tile the row space "
                    f"contiguously (expected start {cursor}, got {segment.start})"
                )
            cursor = segment.end
        if self.rank_order is not None:
            order = np.asarray(self.rank_order, dtype=np.int64)
            if order.shape != (cursor,):
                raise ValueError(
                    f"table {self.table_name!r}: rank_order must have one entry per "
                    f"row ({cursor}), got shape {order.shape}"
                )
            self.rank_order = order

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        if name == "segments":
            self._segment_ends = np.array([s.end for s in self.segments], dtype=np.int64)
            self._segment_tiers = np.array([s.tier for s in self.segments], dtype=np.int64)

    @property
    def num_rows(self) -> int:
        return self.segments[-1].end

    @property
    def is_split(self) -> bool:
        return len(self.segments) > 1

    def tiers(self) -> Tuple[int, ...]:
        return tuple(sorted({segment.tier for segment in self.segments}))

    def tiers_of_rows(self, stored_indices: np.ndarray) -> np.ndarray:
        """The home tier of each stored row in ``stored_indices``."""
        stored = np.asarray(stored_indices, dtype=np.int64)
        # As unsigned, a negative index is huge: one reduction bounds both ends.
        if stored.size and int(stored.view(np.uint64).max()) >= self.num_rows:
            raise IndexError(
                f"stored rows out of range for table {self.table_name!r} "
                f"with {self.num_rows} rows"
            )
        if self._segment_tiers.size == 1:
            tiers = np.empty(stored.size, dtype=np.int64)
            tiers.fill(self.segments[0].tier)
            return tiers
        return self._segment_tiers[self._segment_ends.searchsorted(stored, side="right")]

    def bytes_on_tier(self, tier: int, row_bytes: int) -> int:
        return sum(s.num_rows * row_bytes for s in self.segments if s.tier == tier)


@dataclass
class TieredPlacement:
    """The full placement decision for a model across ``num_tiers`` tiers."""

    num_tiers: int
    decisions: Dict[str, TieredTablePlacement] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_tiers < 1:
            raise ValueError(f"num_tiers must be positive: {self.num_tiers}")

    def copy(self) -> "TieredPlacement":
        """An independent copy whose decisions can be resolved/re-anchored
        without mutating the original (segments tuples are immutable, so a
        per-decision shallow copy suffices)."""
        duplicate = TieredPlacement(num_tiers=self.num_tiers)
        for name, decision in self.decisions.items():
            duplicate.decisions[name] = TieredTablePlacement(
                table_name=decision.table_name,
                segments=decision.segments,
                cache_enabled=decision.cache_enabled,
                rank_order=decision.rank_order,
            )
        return duplicate

    def add(self, decision: TieredTablePlacement) -> None:
        if decision.table_name in self.decisions:
            raise ValueError(
                f"table {decision.table_name!r} already has a placement"
            )
        bad = [s.tier for s in decision.segments if s.tier >= self.num_tiers]
        if bad:
            raise ValueError(
                f"table {decision.table_name!r} references tier(s) {bad} but the "
                f"hierarchy has {self.num_tiers} tiers"
            )
        self.decisions[decision.table_name] = decision

    def for_table(self, table_name: str) -> TieredTablePlacement:
        if table_name not in self.decisions:
            raise KeyError(f"no placement decision for table {table_name!r}")
        return self.decisions[table_name]

    def tables_on(self, tier: int) -> List[str]:
        """Tables with at least one segment homed on ``tier``."""
        return [
            name
            for name, decision in self.decisions.items()
            if any(segment.tier == tier for segment in decision.segments)
        ]

    def storage_tables(self) -> List[str]:
        """Tables with at least one segment on a device tier (tier >= 1)."""
        return [
            name
            for name, decision in self.decisions.items()
            if any(segment.tier >= 1 for segment in decision.segments)
        ]

    def tier_bytes(self, specs: Mapping[str, EmbeddingTableSpec], tier: int) -> int:
        """Bytes of table data homed on ``tier`` (by original spec sizes)."""
        total = 0
        for name, decision in self.decisions.items():
            if name not in specs:
                continue
            total += decision.bytes_on_tier(tier, specs[name].row_bytes)
        return total


def whole_table_segments(decision: TieredTablePlacement, stored_rows: int) -> Tuple[TierSegment, ...]:
    """Resolve a whole-table decision to the concrete stored row count.

    Single-segment (whole-table) placements are re-anchored on
    ``stored_rows``: placement works on original spec sizes, but pruning can
    shrink what is actually stored.  Row-split placements must already cover
    the stored row space exactly.
    """
    if len(decision.segments) == 1:
        only = decision.segments[0]
        return (TierSegment(tier=only.tier, start=0, end=stored_rows),)
    if decision.segments[-1].end != stored_rows:
        raise ValueError(
            f"table {decision.table_name!r}: placement covers "
            f"{decision.segments[-1].end} rows but the table stores {stored_rows}"
        )
    return decision.segments


def _bandwidth_density(spec: EmbeddingTableSpec) -> float:
    return spec.bytes_per_query / spec.size_bytes


def compute_tiered_placement(
    specs: Sequence[EmbeddingTableSpec],
    tiers: Sequence[TierSpec],
    *,
    pinned_fast_tables: Iterable[str] = (),
    cache_disable_alpha_threshold: Optional[float] = None,
    granularity: str = "table",
    row_hotness: Optional[Mapping[str, Sequence[int]]] = None,
) -> TieredPlacement:
    """Assign tables (or row ranges) across an ordered tier list.

    Item tables and ``pinned_fast_tables`` (the paper's Tuning API for an
    offline-computed list of tables that must never go to SM) always home on
    tier 0 and do not count against its budget.  User tables are visited in
    descending bandwidth density and greedily homed on the fastest tier with
    room; ``granularity="rows"`` additionally splits a table that straddles
    a budget boundary, homing its hottest rows (per ``row_hotness``, or by
    row-id order without a profile) on the faster tier.  A table homed whole
    on tier 0 is served from fast memory, so its row cache is off.

    ``cache_disable_alpha_threshold`` is the ``per_table_cache`` policy: tables
    with access skew below the threshold bypass the row caches.

    Raises ``ValueError`` when a table (or its tail) fits no tier — the
    caller sized the hierarchy smaller than the model.
    """
    tier_specs = parse_tiers(tiers)
    if not tier_specs:
        raise ValueError("compute_tiered_placement needs a non-empty tier list")
    if granularity not in ("table", "rows"):
        raise ValueError(f"granularity must be 'table' or 'rows': {granularity!r}")
    pinned = set(pinned_fast_tables)
    unknown = pinned - {spec.name for spec in specs}
    if unknown:
        raise ValueError(f"pinned tables not present in the model: {sorted(unknown)}")

    placement = TieredPlacement(num_tiers=len(tier_specs))
    budgets = [tier.capacity_bytes for tier in tier_specs]

    def cache_enabled_for(spec: EmbeddingTableSpec, slowest_tier: int) -> bool:
        if slowest_tier == 0:
            return False
        if cache_disable_alpha_threshold is None:
            return True
        return spec.zipf_alpha >= cache_disable_alpha_threshold

    # Decisions are collected first and added in the original spec order, so
    # device layout (and therefore IO interleaving) does not depend on the
    # density-sorted visit order, only on which tables are on the devices —
    # keeping runs comparable across budgets and policies.
    decisions: Dict[str, TieredTablePlacement] = {}
    user_specs = [s for s in specs if s.is_user and s.name not in pinned]
    for spec in specs:
        if not spec.is_user or spec.name in pinned:
            decisions[spec.name] = TieredTablePlacement(
                table_name=spec.name,
                segments=(TierSegment(tier=0, start=0, end=spec.num_rows),),
                cache_enabled=False,
            )

    def stored_cost(tier_index: int, num_rows: int, row_bytes: int) -> int:
        """Bytes a row range actually occupies on a tier.

        Device tiers store rows in 4 KiB blocks (rows never straddle a block
        boundary), so their cost is block-quantised; the fast tier is
        byte-addressable and exact.
        """
        if tier_index == 0:
            return num_rows * row_bytes
        rows_per_block = BLOCK_SIZE // row_bytes
        if rows_per_block == 0:
            raise ValueError(
                f"rows of {row_bytes} B do not fit a {BLOCK_SIZE} B device block"
            )
        return -(-num_rows // rows_per_block) * BLOCK_SIZE

    for spec in sorted(user_specs, key=_bandwidth_density, reverse=True):
        if granularity == "table":
            homed = False
            for tier_index in range(len(tier_specs)):
                cost = stored_cost(tier_index, spec.num_rows, spec.row_bytes)
                if cost <= budgets[tier_index]:
                    budgets[tier_index] -= cost
                    decisions[spec.name] = TieredTablePlacement(
                        table_name=spec.name,
                        segments=(
                            TierSegment(tier=tier_index, start=0, end=spec.num_rows),
                        ),
                        cache_enabled=cache_enabled_for(spec, tier_index),
                    )
                    homed = True
                    break
            if not homed:
                raise ValueError(
                    f"table {spec.name!r} ({spec.size_bytes} B) does not fit in any "
                    f"tier; tier budgets left: {budgets}"
                )
            continue

        # Row granularity: cascade the table down the hierarchy, hottest
        # stored rows first.
        segments: List[TierSegment] = []
        cursor = 0
        for tier_index in range(len(tier_specs)):
            if cursor >= spec.num_rows:
                break
            if tier_index == 0:
                rows_fitting = budgets[0] // spec.row_bytes
            else:
                rows_per_block = BLOCK_SIZE // spec.row_bytes
                rows_fitting = (budgets[tier_index] // BLOCK_SIZE) * rows_per_block
            take = min(rows_fitting, spec.num_rows - cursor)
            if take <= 0:
                continue
            budgets[tier_index] -= stored_cost(tier_index, take, spec.row_bytes)
            segments.append(TierSegment(tier=tier_index, start=cursor, end=cursor + take))
            cursor += take
        if cursor < spec.num_rows:
            raise ValueError(
                f"table {spec.name!r} does not fit: {spec.num_rows - cursor} row(s) "
                f"({(spec.num_rows - cursor) * spec.row_bytes} B) overflow every tier"
            )
        rank_order = None
        if row_hotness is not None and spec.name in row_hotness and len(segments) > 1:
            order = np.asarray(list(row_hotness[spec.name]), dtype=np.int64)
            if order.shape != (spec.num_rows,) or set(order.tolist()) != set(
                range(spec.num_rows)
            ):
                raise ValueError(
                    f"row_hotness for table {spec.name!r} must be a permutation of "
                    f"its {spec.num_rows} row ids"
                )
            rank_order = order
        decisions[spec.name] = TieredTablePlacement(
            table_name=spec.name,
            segments=tuple(segments),
            cache_enabled=cache_enabled_for(spec, segments[-1].tier),
            rank_order=rank_order,
        )
    for spec in specs:
        placement.add(decisions[spec.name])
    return placement


def hotness_ranking(trace: Sequence[int], num_rows: int) -> np.ndarray:
    """Rank row ids hottest-first from an access trace (ties by row id).

    The output feeds ``row_hotness``: ``ranking[rank] == row_id``.  Rows that
    never appear in the trace rank after all observed rows.
    """
    counts = np.zeros(num_rows, dtype=np.int64)
    if len(trace):
        observed = np.asarray(list(trace), dtype=np.int64)
        if observed.min() < 0 or observed.max() >= num_rows:
            raise ValueError(f"trace references rows outside [0, {num_rows})")
        counts += np.bincount(observed, minlength=num_rows)
    # Stable sort on negated counts: equal-frequency rows stay in id order.
    return np.argsort(-counts, kind="stable").astype(np.int64)
