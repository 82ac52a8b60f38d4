"""The tier chain: serving row lookups through an N-tier hierarchy.

A :class:`TierChain` owns an ordered list of :class:`~repro.hierarchy.tier.MemoryTier`
objects (fastest first) plus the :class:`~repro.hierarchy.placement.TieredPlacement`
that says where every stored row lives.  Serving one row homed on tier ``k``:

1. probe the row caches of tiers ``0 .. k-1`` in order (each probe costs host
   CPU time),
2. on a full miss, read the row from tier ``k`` — fast-memory bytes for rows
   homed on tier 0, a device IO otherwise,
3. promote the row into upper-tier caches according to the configurable
   promotion policy (``all`` — every cache above the home tier; ``top`` —
   the fastest cache only; ``none``).

:meth:`TierChain.fetch_batch` serves a whole request that way with array
operations: the host walks the rows in request order, then all misses go to
their home tiers together.  Whenever only tier 0 carries a cache — every
two-tier configuration — ``all`` and ``top`` coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hierarchy.placement import TieredPlacement
from repro.hierarchy.tier import PROMOTION_POLICIES, MemoryTier, first_occurrence_groups
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.clock import charge_repeatedly


@dataclass
class BatchFetchOutcome:
    """Result of fetching one batch of stored rows through the chain.

    ``rows`` stacks the payloads as one uint8 matrix, row ``i`` being the
    ``i``-th stored row asked for.
    """

    rows: np.ndarray
    completion_time: float
    device_reads: int = 0
    fast_rows: int = 0
    cache_hits: int = 0
    probe_seconds: float = 0.0
    reads_by_tier: Dict[int, int] = field(default_factory=dict)


class TierChain:
    """Serves stored-row lookups through an ordered list of memory tiers."""

    def __init__(
        self,
        tiers: Sequence[MemoryTier],
        placement: TieredPlacement,
        *,
        promotion: str = "top",
        cache_probe_seconds: float = 0.0,
        fm_lookup_overhead: float = 0.0,
        fm_bandwidth: float = float("inf"),
    ) -> None:
        if not tiers:
            raise ValueError("TierChain needs at least one tier")
        if promotion not in PROMOTION_POLICIES:
            raise ValueError(
                f"unknown promotion policy {promotion!r}; choices: {PROMOTION_POLICIES}"
            )
        if placement.num_tiers > len(tiers):
            raise ValueError(
                f"placement references {placement.num_tiers} tiers, chain has {len(tiers)}"
            )
        self.tiers = list(tiers)
        self.placement = placement
        self.promotion = promotion
        self.cache_probe_seconds = cache_probe_seconds
        self.fm_lookup_overhead = fm_lookup_overhead
        self.fm_bandwidth = fm_bandwidth
        #: Span recorder for probe / storage-IO waits; the no-op default
        #: keeps the serve path bit-identical to an uninstrumented build.
        self.recorder: TraceRecorder = NULL_RECORDER
        # Which tiers carry a cache and which of them receive promotions never
        # changes after construction, so the per-home-tier probe and target
        # lists (walked for every row) are precomputed.
        cached = [index for index, tier in enumerate(self.tiers) if tier.cache is not None]
        self._cached_tiers: List[int] = cached
        self._promotion_tiers: List[int] = {"none": [], "top": cached[:1], "all": cached}[
            promotion
        ]
        self._promotion_target_indices: List[List[int]] = [
            [index for index in self._promotion_tiers if index < source]
            for source in range(len(self.tiers) + 1)
        ]

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def _promotion_targets(self, source_tier: int) -> List[int]:
        """Cached tiers a row served from ``source_tier`` — its home tier or
        the slower cache it was found in — is promoted into."""
        return self._promotion_target_indices[source_tier]

    def fetch_batch(
        self,
        table_name: str,
        stored: np.ndarray,
        start_time: float,
        *,
        row_len: int,
        cache_enabled: bool = True,
    ) -> BatchFetchOutcome:
        """Fetch stored rows ``stored`` of a table whose stored rows are
        ``row_len`` bytes long.

        Two phases.  The host walks the request in order: each row
        probes the caches above its home tier, a hit pays the cache tier's
        media time and is promoted into the faster caches right away, and a
        row homed on tier 0 is read at fast-memory cost.  Then every miss is
        submitted to its home tier's devices at the time the walk ended, all
        tiers concurrently, and the rows read are promoted per policy.

        The walk runs as array operations (:meth:`_walk_range`), tier-0
        payloads are one matrix gather, and each device tier gets one
        grouped ``read_rows_batch``.  Time is charged as a per-row walk
        would charge it — the probe/hit/fast increments are laid out in walk
        order and summed with ``np.add.accumulate``, whose left-to-right
        addition chain makes the accrued floats bit-identical to ``+=``.
        """
        stored = np.asarray(stored, dtype=np.int64)
        count = int(stored.size)
        decision = self.placement.for_table(table_name)
        home_tiers = (
            decision.tiers_of_rows(stored)
            if count
            else np.zeros(0, dtype=np.int64)
        )

        # Per row: the cached tier that served it (-1: none) and, per cached
        # tier, whether the walk probed it — filled range by range.
        num_cached = len(self._cached_tiers)
        rows_out = np.zeros((count, row_len), dtype=np.uint8)
        hit_tier = np.full(count, -1, dtype=np.int64)
        walked = np.zeros((num_cached, count), dtype=bool)
        if cache_enabled and count:
            self._walk_range(
                table_name, stored, home_tiers, row_len, rows_out, hit_tier, walked, 0, count
            )
        cache_hits = int(np.count_nonzero(hit_tier >= 0))

        # Tier-0-homed rows: one matrix gather from the in-memory tables.
        fm_mask = (home_tiers == 0) & (hit_tier < 0)
        num_fast = int(np.count_nonzero(fm_mask))
        if num_fast:
            fast = self.tiers[0]
            rows_out[fm_mask] = fast.read_rows_batch(table_name, stored[fm_mask], start_time)[0]
            fast.stats.rows_served += num_fast
            fast.stats.bytes_served += num_fast * row_len

        # The walk's time accrual: per row, one probe charge per walked
        # cache, then the hit/fast terminal increment.  Zero padding is
        # bitwise-neutral (x + 0.0 == x for the positive cursor).
        increments = np.zeros((count, num_cached + 1), dtype=np.float64)
        increments[:, :num_cached][walked.T] = self.cache_probe_seconds
        total_probes = int(np.count_nonzero(walked))
        for tier_index in self._cached_tiers:
            hits_here = hit_tier == tier_index
            if bool(hits_here.any()):
                increments[hits_here, num_cached] = self.tiers[
                    tier_index
                ].cache_hit_seconds(row_len)
        if num_fast:
            increments[fm_mask, num_cached] = (
                self.fm_lookup_overhead + row_len / self.fm_bandwidth
            )
        chain = np.concatenate(([start_time], increments.ravel()))
        cursor = float(np.add.accumulate(chain)[-1])
        probe_seconds = charge_repeatedly(0.0, self.cache_probe_seconds, total_probes)

        outcome = BatchFetchOutcome(
            rows=rows_out,
            completion_time=start_time,
            cache_hits=cache_hits,
            fast_rows=num_fast,
            probe_seconds=probe_seconds,
        )
        recorder = self.recorder
        if recorder.enabled and cursor > start_time:
            # The serial host walk: cache probes, hit copies, fast-tier reads.
            recorder.span(
                "walk",
                "chain",
                start_time,
                cursor - start_time,
                args={
                    "probe_seconds": probe_seconds,
                    "cache_hits": cache_hits,
                    "fast_rows": num_fast,
                },
            )

        # Misses: grouped by home tier in order of first occurrence, one
        # batch submission per tier at the end of the walk, then promotion
        # fills target by target (each cache sees its fills in row order).
        io_done = cursor
        misses = np.nonzero((hit_tier < 0) & (home_tiers != 0))[0]
        for tier_index, rows_at in first_occurrence_groups(home_tiers, misses):
            tier = self.tiers[tier_index]
            targets = self._promotion_targets(tier_index) if cache_enabled else []
            num_reads = int(rows_at.size)
            miss_stored = stored[rows_at]
            matrix, completions = tier.read_rows_batch(table_name, miss_stored, cursor)
            rows_out[rows_at] = matrix
            group_done = max(cursor, float(completions.max()))
            for target in targets:
                self.tiers[target].fill_cache_batch(table_name, miss_stored, matrix)
            outcome.device_reads += num_reads
            outcome.reads_by_tier[tier_index] = num_reads
            io_done = max(io_done, group_done)
            if recorder.enabled:
                recorder.span(
                    f"io:{tier.spec.name}",
                    "storage",
                    cursor,
                    group_done - cursor,
                    args={
                        "tier": tier_index,
                        "reads": num_reads,
                        "promoted_rows": len(targets) * num_reads,
                    },
                )

        outcome.completion_time = max(cursor, io_done)
        return outcome

    def _walk_range(
        self,
        table_name: str,
        stored: np.ndarray,
        home_tiers: np.ndarray,
        row_len: int,
        rows_out: np.ndarray,
        hit_tier: np.ndarray,
        walked: np.ndarray,
        lo: int,
        hi: int,
    ) -> None:
        """Probe the caches for rows ``[lo, hi)`` of a batch, in walk order.

        A hit in a cache below the fastest one is promoted into the faster
        caches mid-walk, so each cache sees, row by row, a probe followed
        (for a promoted row) by a fill.  One ordered
        ``probe_cache_batch(..., promote_mask, promote_values)`` per cache
        replays that sequence for the whole range — exactly, unless a fill
        changes what a later probe of the same range finds.  So the range
        is first planned without touching anything (which rows each cache
        is probed for, and the first cache holding each row), then
        certified: no promoted row occurs twice, and no promotion target
        would evict a row the range hits there
        (:meth:`MemoryTier.promotion_hazard`).  A range that fails is walked
        as two halves, the second planned against the state the first
        left; a single row needs no certificate, because probe-then-fill of
        one row *is* the per-row sequence.

        Fills ``rows_out`` (hit payloads), ``hit_tier`` and ``walked`` for
        the range.
        """
        keys, homes = stored[lo:hi], home_tiers[lo:hi]
        found = np.full(hi - lo, -1, dtype=np.int64)
        probed: Dict[int, np.ndarray] = {}
        unresolved = np.ones(hi - lo, dtype=bool)
        for tier_index in self._cached_tiers:
            eligible = unresolved & (homes > tier_index)
            if not bool(eligible.any()):
                continue
            probed[tier_index] = eligible
            contained = self.tiers[tier_index].cache_contains_batch(
                table_name, keys[eligible], row_len
            )
            if bool(contained.any()):
                rows_at = np.nonzero(eligible)[0][contained]
                found[rows_at] = tier_index
                unresolved[rows_at] = False

        # Every row found below cached tier t is filled into t right after
        # missing there (the fastest receiver takes every promoted row).
        promoted_into: Dict[int, np.ndarray] = {}
        for tier_index in self._promotion_tiers:
            promoted = found > tier_index
            if bool(promoted.any()):
                promoted_into[tier_index] = promoted
        if promoted_into and hi - lo > 1:
            promoted_keys = keys[promoted_into[self._promotion_tiers[0]]]
            if np.unique(promoted_keys).size < promoted_keys.size or any(
                self.tiers[tier_index].promotion_hazard(
                    table_name,
                    keys[found == tier_index],
                    int(np.count_nonzero(promoted)),
                    row_len,
                )
                for tier_index, promoted in promoted_into.items()
            ):
                mid = (lo + hi) // 2
                for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
                    self._walk_range(
                        table_name, stored, home_tiers, row_len,
                        rows_out, hit_tier, walked, sub_lo, sub_hi,
                    )
                return

        # Mutating probes, one per cached tier.  Caches are independent, so
        # the slowest goes first: its hits are the payloads promoted into
        # the faster ones.
        payloads = rows_out[lo:hi]
        for column in reversed(range(len(self._cached_tiers))):
            tier_index = self._cached_tiers[column]
            eligible = probed.get(tier_index)
            if eligible is None:
                continue
            walked[column, lo:hi] = eligible
            promoted = promoted_into.get(tier_index)
            promotion: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (
                (None, None) if promoted is None else (promoted[eligible], payloads[promoted])
            )
            hit_mask, values = self.tiers[tier_index].probe_cache_batch(
                table_name, keys[eligible], row_len, *promotion
            )
            if values.shape[0]:
                payloads[np.nonzero(eligible)[0][hit_mask]] = values
        hit_tier[lo:hi] = found

    # ---------------------------------------------------------------- admin
    def clear_caches(self) -> None:
        for tier in self.tiers:
            tier.clear_cache()

    def reset_stats(self) -> None:
        for tier in self.tiers:
            tier.reset_stats()

    def reset_queues(self) -> None:
        """Clear every tier's behavioural queue state; counters untouched."""
        for tier in self.tiers:
            tier.reset_queues()

    def reset_rng(self) -> None:
        """Rewind every tier's random streams to their as-constructed state."""
        for tier in self.tiers:
            tier.reset_rng()
