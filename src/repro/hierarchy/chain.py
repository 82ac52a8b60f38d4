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

Whenever only tier 0 carries a cache — every legacy two-tier configuration —
``all`` and ``top`` coincide and the chain is bit-identical to the original
FM-cache-then-SM path of :class:`~repro.core.sdm.SoftwareDefinedMemory`,
which the parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hierarchy.placement import TieredPlacement
from repro.hierarchy.tier import PROMOTION_POLICIES, MemoryTier
from repro.obs.trace import NULL_RECORDER, TraceRecorder


@dataclass
class FetchOutcome:
    """Result of fetching one batch of stored rows through the chain."""

    rows_by_position: Dict[int, bytes]
    completion_time: float
    device_reads: int = 0
    fast_rows: int = 0
    cache_hits: int = 0
    probe_seconds: float = 0.0
    reads_by_tier: Dict[int, int] = field(default_factory=dict)


@dataclass
class BatchFetchOutcome:
    """Array-native result of :meth:`TierChain.fetch_batch`.

    ``rows`` stacks the served payloads as one uint8 matrix aligned with
    ``served_positions`` (ascending request positions); everything else
    matches :class:`FetchOutcome` field for field.
    """

    rows: np.ndarray
    served_positions: np.ndarray
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
        sources = range(len(self.tiers) + 1)
        self._upper_cache_indices: List[List[int]] = [
            [index for index in cached if index < source] for source in sources
        ]
        self._promotion_target_indices: List[List[int]] = [
            [index for index in self._promotion_tiers if index < source] for source in sources
        ]
        #: Why the last :meth:`fetch_batch` call declined (returned ``None``);
        #: ``None`` after a call that served its batch.
        self.decline_reason: Optional[str] = None

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def _upper_caches(self, home_tier: int) -> List[int]:
        """Tier indices above ``home_tier`` that carry a row cache."""
        return self._upper_cache_indices[home_tier]

    def _promotion_targets(self, source_tier: int) -> List[int]:
        """Cached tiers a row served from ``source_tier`` — its home tier or
        the slower cache it was found in — is promoted into."""
        return self._promotion_target_indices[source_tier]

    def fetch_rows(
        self,
        table_name: str,
        stored_by_position: Sequence[Tuple[int, int]],
        start_time: float,
        *,
        cache_enabled: bool = True,
        size_hint: Optional[int] = None,
    ) -> FetchOutcome:
        """Fetch stored rows ``[(position, stored_index), ...]`` of a table.

        Probe costs accrue serially in position order (the host walks the
        request), then all cache misses are submitted to their home tiers'
        devices concurrently at the accrued cursor — exactly the two-phase
        structure of the original two-tier serve path.
        """
        decision = self.placement.for_table(table_name)
        cursor = start_time
        outcome = FetchOutcome(rows_by_position={}, completion_time=start_time)
        misses_by_tier: Dict[int, List[Tuple[int, int]]] = {}
        # One vectorised segment lookup for the whole batch instead of a
        # per-row linear scan.
        home_tiers = decision.tiers_of_rows(
            [stored for _, stored in stored_by_position]
        )

        for (position, stored), home_tier in zip(stored_by_position, home_tiers):
            home_tier = int(home_tier)
            served = False
            if cache_enabled:
                for tier_index in self._upper_caches(home_tier):
                    cursor += self.cache_probe_seconds
                    outcome.probe_seconds += self.cache_probe_seconds
                    tier = self.tiers[tier_index]
                    cached = tier.probe_cache(
                        (table_name, int(stored)), size_hint=size_hint
                    )
                    if cached is not None:
                        # Bytes cached below tier 0 still cross that tier's
                        # media, and a hit re-promotes the row into the
                        # faster caches it has fallen out of (per policy).
                        cursor += tier.cache_hit_seconds(len(cached))
                        for target in self._promotion_targets(tier_index):
                            self.tiers[target].fill_cache(
                                (table_name, int(stored)), cached
                            )
                        outcome.rows_by_position[position] = cached
                        outcome.cache_hits += 1
                        served = True
                        break
            if served:
                continue
            if home_tier == 0:
                # Fast-memory resident row: read it straight from the model at
                # fast-memory cost (dequantisation is charged by the caller
                # together with every other fetched row).
                read = self.tiers[0].read_rows(table_name, [int(stored)], cursor)[0]
                data = read.data
                cursor += self.fm_lookup_overhead + len(data) / self.fm_bandwidth
                fast = self.tiers[0]
                fast.stats.rows_served += 1
                fast.stats.bytes_served += len(data)
                outcome.rows_by_position[position] = data
                outcome.fast_rows += 1
                continue
            misses_by_tier.setdefault(home_tier, []).append((position, int(stored)))

        recorder = self.recorder
        if recorder.enabled and cursor > start_time:
            # The serial host walk: cache probes, hit copies, fast-tier reads.
            recorder.span(
                "walk",
                "chain",
                start_time,
                cursor - start_time,
                args={
                    "probe_seconds": outcome.probe_seconds,
                    "cache_hits": outcome.cache_hits,
                    "fast_rows": outcome.fast_rows,
                },
            )
        io_done = cursor
        for tier_index, entries in misses_by_tier.items():
            tier = self.tiers[tier_index]
            reads = tier.read_rows(
                table_name, [stored for _, stored in entries], cursor
            )
            outcome.device_reads += len(reads)
            outcome.reads_by_tier[tier_index] = (
                outcome.reads_by_tier.get(tier_index, 0) + len(reads)
            )
            targets = self._promotion_targets(tier_index) if cache_enabled else []
            group_done = cursor
            for (position, stored), read in zip(entries, reads):
                outcome.rows_by_position[position] = read.data
                group_done = max(group_done, read.completion_time)
                for target in targets:
                    self.tiers[target].fill_cache((table_name, stored), read.data)
            io_done = max(io_done, group_done)
            if recorder.enabled:
                recorder.span(
                    f"io:{tier.spec.name}",
                    "storage",
                    cursor,
                    group_done - cursor,
                    args={
                        "tier": tier_index,
                        "reads": len(reads),
                        "promoted_rows": len(targets) * len(reads),
                    },
                )

        outcome.completion_time = max(cursor, io_done)
        return outcome

    def fetch_batch(
        self,
        table_name: str,
        positions: np.ndarray,
        stored: np.ndarray,
        start_time: float,
        *,
        cache_enabled: bool = True,
        size_hint: Optional[int] = None,
    ) -> Optional[BatchFetchOutcome]:
        """Array-native :meth:`fetch_rows`: the whole batch flows as arrays.

        Partitions the batch by home tier with one segment lookup, probes
        each tier's cache once for all eligible rows, gathers tier-0 payloads
        as one matrix, and issues one grouped ``read_rows`` per device tier.
        Time is charged with the same serial-probe-then-concurrent-IO cost
        model as the scalar path — the probe/hit/fast increments are replayed
        in scalar walk order through ``np.add.accumulate``, whose left-to-
        right addition chain makes the accrued floats bit-identical.

        A hit in a cache below the fastest one is promoted into the faster
        caches mid-walk.  Each cache then sees, row by row, a probe followed
        (for a promoted row) by a fill; one ordered
        ``probe_cache_batch(..., promote_mask, promote_values)`` per cache
        replays that sequence.  It is exact unless a fill changes what a
        later probe of the same batch finds, which a non-mutating
        certificate rules out before anything is touched.

        Returns ``None`` — with the reason in :attr:`decline_reason` and no
        state perturbed — when the batch cannot be served by array ops with
        bit-identical side effects; callers then use the scalar
        :meth:`fetch_rows` oracle, which is always exact:

        * ``"no_size_hint"``: no uniform row length to shape the arrays;
        * ``"promoted_key_repeats"``: a promoted row occurs again in the
          batch — the scalar walk finds the second one in the faster cache;
        * ``"promotion_evicts_batch_hit"``: the promotion fills into a cache
          would evict a row this batch hits there (or more than it holds);
        * ``"cache_not_batchable"``: a promotion target has several
          partitions, an admission policy other than ``AlwaysAdmit``, or no
          room for even one such row.
        """
        self.decline_reason = None
        if size_hint is None:
            self.decline_reason = "no_size_hint"
            return None
        positions = np.asarray(positions, dtype=np.int64)
        stored = np.asarray(stored, dtype=np.int64)
        count = int(stored.size)
        decision = self.placement.for_table(table_name)
        home_tiers = (
            decision.tiers_of_rows(stored)
            if count
            else np.zeros(0, dtype=np.int64)
        )

        # Plan (non-mutating): the rows the scalar walk probes in each cache
        # and the first cached tier that holds each row.
        hit_tier = np.full(count, -1, dtype=np.int64)
        walked: Dict[int, np.ndarray] = {}
        if cache_enabled and count:
            unresolved = np.ones(count, dtype=bool)
            for tier_index in self._cached_tiers:
                eligible = unresolved & (home_tiers > tier_index)
                if not bool(eligible.any()):
                    continue
                walked[tier_index] = eligible
                contained = self.tiers[tier_index].cache_contains_batch(
                    table_name, stored[eligible], size_hint
                )
                if bool(contained.any()):
                    rows_at = np.nonzero(eligible)[0][contained]
                    hit_tier[rows_at] = tier_index
                    unresolved[rows_at] = False

        # Certificate (non-mutating): every row found below cached tier t is
        # filled into t right after missing there.  The plan stays true if no
        # such row repeats and no fill evicts a row the batch hits in t.
        promoted_into: Dict[int, np.ndarray] = {}
        for tier_index in self._promotion_tiers:
            promoted = hit_tier > tier_index
            if bool(promoted.any()):
                promoted_into[tier_index] = promoted
        if promoted_into:
            # The fastest receiver takes every promoted row.
            promoted_keys = stored[promoted_into[self._promotion_tiers[0]]]
            if np.unique(promoted_keys).size < promoted_keys.size:
                self.decline_reason = "promoted_key_repeats"
                return None
            for tier_index, promoted in promoted_into.items():
                reason = self.tiers[tier_index].promotion_hazard(
                    table_name,
                    stored[hit_tier == tier_index],
                    int(np.count_nonzero(promoted)),
                    size_hint,
                )
                if reason is not None:
                    self.decline_reason = reason
                    return None

        rows_out = np.zeros((count, size_hint), dtype=np.uint8)
        served = np.zeros(count, dtype=bool)
        cache_hits = 0

        # Mutating probes: one batched probe per cached tier.  Each cache sees
        # exactly the scalar walk's sequence (rows in request order, promoted
        # rows filled right after their probe), so stats, CPU charges and LRU
        # order are identical.  Caches are independent, so the slowest goes
        # first: its hits are the payloads promoted into the faster ones.
        for tier_index in reversed(self._cached_tiers):
            walk = walked.get(tier_index)
            if walk is None:
                continue
            promoted = promoted_into.get(tier_index)
            promotion: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (
                (None, None) if promoted is None else (promoted[walk], rows_out[promoted])
            )
            hit_mask, values = self.tiers[tier_index].probe_cache_batch(
                table_name, stored[walk], size_hint, *promotion
            )
            if values.shape[0]:
                rows_at = np.nonzero(walk)[0][hit_mask]
                rows_out[rows_at] = values
                served[rows_at] = True
                cache_hits += int(values.shape[0])

        # Tier-0-homed rows: one matrix gather from the in-memory tables.
        fm_mask = (home_tiers == 0) if count else np.zeros(0, dtype=bool)
        num_fast = int(np.count_nonzero(fm_mask))
        if num_fast:
            fast = self.tiers[0]
            matrix = fast.read_rows_matrix(table_name, stored[fm_mask])
            if matrix is None:
                reads = fast.read_rows(
                    table_name, [int(index) for index in stored[fm_mask]], start_time
                )
                matrix = np.frombuffer(
                    b"".join(read.data for read in reads), dtype=np.uint8
                ).reshape(num_fast, size_hint)
            rows_out[fm_mask] = matrix
            served[fm_mask] = True
            fast.stats.rows_served += num_fast
            fast.stats.bytes_served += num_fast * size_hint

        # Replay the scalar walk's time accrual: per row, one probe charge per
        # walked cache, then the hit/fast terminal increment.  Zero padding is
        # bitwise-neutral (x + 0.0 == x for the positive cursor).
        num_cached = len(self._cached_tiers)
        increments = np.zeros((count, num_cached + 1), dtype=np.float64)
        total_probes = 0
        for column, tier_index in enumerate(self._cached_tiers):
            walk = walked.get(tier_index)
            if walk is None:
                continue
            increments[walk, column] = self.cache_probe_seconds
            total_probes += int(np.count_nonzero(walk))
            hits_here = hit_tier == tier_index
            if bool(hits_here.any()):
                increments[hits_here, num_cached] = self.tiers[
                    tier_index
                ].cache_hit_seconds(size_hint)
        if num_fast:
            increments[fm_mask, num_cached] = (
                self.fm_lookup_overhead + size_hint / self.fm_bandwidth
            )
        chain = np.concatenate(([start_time], increments.ravel()))
        cursor = float(np.add.accumulate(chain)[-1])
        probe_chain = np.concatenate(
            ([0.0], np.full(total_probes, self.cache_probe_seconds))
        )
        probe_seconds = float(np.add.accumulate(probe_chain)[-1])

        # Misses: group by home tier in first-occurrence row order and issue
        # the identical grouped read_rows calls the scalar path would.
        outcome = BatchFetchOutcome(
            rows=rows_out,
            served_positions=positions,
            completion_time=start_time,
            cache_hits=cache_hits,
            fast_rows=num_fast,
            probe_seconds=probe_seconds,
        )
        recorder = self.recorder
        if recorder.enabled and cursor > start_time:
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
        io_done = cursor
        misses_by_tier: Dict[int, List[int]] = {}
        for row in np.nonzero(~served)[0].tolist():
            misses_by_tier.setdefault(int(home_tiers[row]), []).append(row)
        for tier_index, miss_rows in misses_by_tier.items():
            tier = self.tiers[tier_index]
            targets = self._promotion_targets(tier_index) if cache_enabled else []
            group_done = cursor
            num_reads = len(miss_rows)
            rows_at = np.asarray(miss_rows, dtype=np.int64)
            miss_stored = stored[rows_at]
            batch = tier.read_rows_batch(table_name, miss_stored, cursor)
            if batch is not None:
                # Array-native miss path: one grouped batch submission per
                # tier, a matrix scatter instead of per-row frombuffer, and
                # target-major promotion fills (each cache still sees its
                # fills in row order, so LRU state matches the scalar walk).
                matrix, completions = batch
                rows_out[rows_at] = matrix
                served[rows_at] = True
                if num_reads:
                    group_done = max(group_done, float(completions.max()))
                for target in targets:
                    self.tiers[target].fill_cache_batch(
                        table_name, miss_stored, matrix
                    )
            else:
                reads = tier.read_rows(
                    table_name, [int(index) for index in miss_stored], cursor
                )
                num_reads = len(reads)
                for row, read in zip(miss_rows, reads):
                    rows_out[row] = np.frombuffer(read.data, dtype=np.uint8)
                    served[row] = True
                    group_done = max(group_done, read.completion_time)
                    for target in targets:
                        self.tiers[target].fill_cache(
                            (table_name, int(stored[row])), read.data
                        )
            outcome.device_reads += num_reads
            outcome.reads_by_tier[tier_index] = (
                outcome.reads_by_tier.get(tier_index, 0) + num_reads
            )
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

        if not bool(served.all()):
            outcome.rows = rows_out[served]
            outcome.served_positions = positions[served]
        outcome.completion_time = max(cursor, io_done)
        return outcome

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
