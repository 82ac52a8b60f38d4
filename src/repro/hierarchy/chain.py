"""The tier chain: serving row lookups through an N-tier hierarchy.

A :class:`TierChain` owns an ordered list of :class:`~repro.hierarchy.tier.MemoryTier`
objects (fastest first) plus the :class:`~repro.hierarchy.placement.TieredPlacement`
that says where every stored row lives.  Serving one row homed on tier ``k``:

1. probe the row caches of tiers ``0 .. k-1`` in order (each probe costs host
   CPU time),
2. on a full miss, read the row from tier ``k`` — a fast-memory read for rows
   homed on tier 0, a device IO otherwise,
3. promote the row into upper-tier caches according to the configurable
   promotion policy (``all`` — every cache above the home tier; ``top`` —
   the fastest cache only; ``none``).

The chain serves a whole request that way with array operations: the host
walks the rows in request order, then all misses go to their home tiers
together.  Whenever only tier 0 carries a cache — every
two-tier configuration — ``all`` and ``top`` coincide.

The walk is split in three so that the requests of one query can share it:

* :meth:`TierChain.plan` resolves a request without touching anything: each
  row's home tier and, per cache it probes, the cache's slot for it;
* :meth:`TierChain.probe_run` probes every cache once for a *run* of planned
  requests, leaving the recency order and counters the requests' own walks
  would have left one after another;
* :meth:`TierChain.fetch_batch` completes one probed plan, in request order:
  the walk's time, the tier-0 reads, the misses' IO and the fills.

The chain moves keys and times only: which rows hit where, what they cost
and when they complete.  No row bytes travel through it.  The row caches
know no tables: at construction the chain gives every placed table one
contiguous range of int64 cache keys, in placement order, one key per
stored row (:meth:`TierChain.row_keys`), and the caches see only those.

A plan stays valid while no row enters or leaves a cache, so a run may
collect requests for as long as each one is :attr:`FetchPlan.fill_free`;
the first that is not closes it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.unified import UnifiedRowCache
from repro.hierarchy.placement import TieredPlacement
from repro.hierarchy.tier import (
    PROMOTION_POLICIES,
    DeviceTier,
    MemoryTier,
    first_occurrence_groups,
)
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.clock import charge_repeatedly
from repro.sim.state import OBSERVER

_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)

#: One cache a plan probes: the positions of the request's rows that probe
#: it (``None``: every row), their cache keys, and the cache's slots for
#: them (``-1``: absent).
CacheProbe = Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]


@dataclass
class BatchFetchOutcome:
    """Result of fetching one batch of stored rows through the chain."""

    completion_time: float
    device_reads: int = 0
    cache_hits: int = 0
    reads_by_tier: Dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class FetchPlan:
    """One request's stored rows resolved against the chain before any
    cache is touched (:meth:`TierChain.plan`).

    A plan is consumed by one :meth:`TierChain.probe_run` and one
    :meth:`TierChain.fetch_batch`; nothing keeps it.
    """

    table_name: str
    stored: np.ndarray
    #: The rows' cache keys (:meth:`TierChain.row_keys`).
    keys: np.ndarray
    row_len: int
    cache_enabled: bool
    home_tiers: np.ndarray
    #: Per probed cached tier, in walk order: what the request probes there.
    probes: Dict[int, CacheProbe]
    #: The cached tier that serves each row (``-1``: none).
    found: np.ndarray
    #: Positions of the rows no cache serves: fast-tier reads and misses.
    unserved: np.ndarray
    #: Cache probes the walk makes, one per row and cache it reaches.
    num_probes: int
    #: Some row hits in a cache below a promotion target, so the probe
    #: fills a faster cache mid-walk: the request is probed alone, under
    #: the promotion certificate.
    promotes: bool
    #: Completing the request changes nothing a later plan reads: it fills
    #: no row into a cache and promotes none.
    fill_free: bool


@functools.lru_cache(maxsize=1024)
def _probe_seconds(cost: float, count: int) -> float:
    """``count`` probe charges of ``cost`` summed from zero, as the walk
    accrues them; a trace argument, memoised so a traced walk does not pay
    an accumulation per span."""
    return charge_repeatedly(0.0, cost, count)


class TierChain:
    """Serves stored-row lookups through an ordered list of memory tiers."""

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"recorder": OBSERVER}

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
        # One cache key per stored row: each placed table's key range starts
        # where the previous table's ends.  The owner has resolved every
        # decision to the rows actually stored before building the chain.
        self._key_base: Dict[str, int] = {}
        next_key = 0
        for name, decision in placement.decisions.items():
            self._key_base[name] = next_key
            next_key += decision.num_rows
        #: Span recorder for probe / storage-IO waits; the no-op default
        #: keeps the serve path bit-identical to an uninstrumented build.
        self.recorder: TraceRecorder = NULL_RECORDER
        # Which tiers carry a cache and which of them receive promotions never
        # changes after construction, so the per-home-tier probe and target
        # lists (walked for every row) are precomputed.
        self._caches: Dict[int, UnifiedRowCache] = {
            index: tier.cache for index, tier in enumerate(self.tiers) if tier.cache is not None
        }
        cached = list(self._caches)
        self._cached_tiers: List[int] = cached
        self._cached_array = np.array(cached, dtype=np.int64)
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

    def row_keys(self, table_name: str, stored: np.ndarray) -> np.ndarray:
        """The cache keys of stored rows ``stored`` of a placed table: the
        first key of the table's range plus each stored index.  Keys of
        distinct tables never collide while the stored indices are in range,
        which :meth:`plan` checks."""
        return np.asarray(stored, dtype=np.int64) + self._key_base[table_name]

    # ----------------------------------------------------------------- plan
    def plan(
        self,
        table_name: str,
        stored: np.ndarray,
        *,
        row_len: int,
        cache_enabled: bool = True,
    ) -> FetchPlan:
        """Resolve a request for stored rows ``stored`` of a table whose
        stored rows are ``row_len`` bytes long.  Non-mutating.

        Every row gets its home tier and, for each cache above it that the
        walk reaches, the cache's slot for it; the first cache holding the
        row serves it.  Probes only touch recency, so the resolution holds
        across the probes and fill-free completions of other requests.
        """
        stored = np.asarray(stored, dtype=np.int64)
        count = int(stored.size)
        home_tiers = (
            self.placement.for_table(table_name).tiers_of_rows(stored)
            if count
            else np.zeros(0, dtype=np.int64)
        )
        keys = stored + self._key_base[table_name]  # row_keys, inline
        if cache_enabled and count:
            probes, found, unserved = self._resolve(keys, home_tiers, row_len)
        else:
            probes, found, unserved = {}, np.full(count, -1, dtype=np.int64), np.arange(count)
        # The fastest cache that receives promotions; past the slowest tier
        # when none does, so that no row is below it.
        receiver = self._promotion_tiers[0] if self._promotion_tiers else len(self.tiers)
        num_probes, promotes = 0, False
        for tier_index, (_, probed_keys, slots) in probes.items():
            num_probes += int(probed_keys.size)
            # A hit below the receiver is promoted into it mid-walk.
            promotes = promotes or (
                tier_index > receiver and bool(np.count_nonzero(slots >= 0))
            )
        # A miss homed below the receiver is filled into it after its IO.
        fills = (
            cache_enabled
            and bool(unserved.size)
            and bool(np.count_nonzero(home_tiers[unserved] > receiver))
        )
        return FetchPlan(
            table_name=table_name,
            stored=stored,
            keys=keys,
            row_len=row_len,
            cache_enabled=cache_enabled,
            home_tiers=home_tiers,
            probes=probes,
            found=found,
            unserved=unserved,
            num_probes=num_probes,
            promotes=promotes,
            fill_free=not (promotes or fills),
        )

    def _resolve(
        self, keys: np.ndarray, homes: np.ndarray, row_len: int
    ) -> Tuple[Dict[int, CacheProbe], np.ndarray, np.ndarray]:
        """What rows ``keys`` (homed on ``homes``) probe, cache by cache in
        walk order; the first cache holding each (``-1``: none); and the
        positions of the rows no cache holds.

        A row that misses a cache walks on to the next cache above its
        home; caches are visited fastest first, so a row that does not
        reach one reaches none after it.
        """
        count = int(keys.size)
        found = np.empty(count, dtype=np.int64)
        found.fill(-1)
        probes: Dict[int, CacheProbe] = {}
        # Positions of the rows still walking; ``None`` while that is all.
        walking: Optional[np.ndarray] = None
        for tier_index, cache in self._caches.items():
            reach = (homes if walking is None else homes[walking]) > tier_index
            reached = int(np.count_nonzero(reach))
            if not reached:
                break
            positions = walking
            if reached < reach.size:
                positions = np.nonzero(reach)[0] if walking is None else walking[reach]
            probed_keys = keys if positions is None else keys[positions]
            slots = cache.lookup_batch(row_len, probed_keys)
            probes[tier_index] = (positions, probed_keys, slots)
            contained = slots >= 0
            held = int(np.count_nonzero(contained))
            if held == slots.size:
                if positions is None:  # every row walked here, and all hit
                    found.fill(tier_index)
                    return probes, found, _NO_ROWS
                found[positions] = tier_index
                break
            if held:
                if positions is None:
                    positions = np.arange(count)
                found[positions[contained]] = tier_index
                positions = positions[~contained]
            walking = positions
        return probes, found, np.nonzero(found < 0)[0]

    # ---------------------------------------------------------------- probe
    def probe_run(self, plans: Sequence[FetchPlan]) -> None:
        """Probe every cache once for a run of planned requests.

        A cache sees the run's rows request by request, in order — the
        touches and counters each request's own probe would leave.  The run is
        exact because each request but the last is
        :attr:`~FetchPlan.fill_free`: completing them in order between this
        probe and the next changes nothing a later plan of the run read.
        A request that promotes mid-walk is probed alone, range by range
        (:meth:`_walk_range`).
        """
        if any(not plan.fill_free for plan in plans[:-1]):
            raise ValueError("only the last request of a run may fill a cache")
        if plans and plans[-1].promotes:
            if len(plans) > 1:
                raise ValueError("a request that promotes mid-walk is probed alone")
            plan = plans[0]
            plan.num_probes = 0
            self._walk_range(plan, 0, int(plan.stored.size), (plan.probes, plan.found))
            plan.unserved = np.nonzero(plan.found < 0)[0]
            return
        for tier_index in self._cached_tiers:
            batches = [
                (plan.probes[tier_index][1], plan.probes[tier_index][2], plan.row_len)
                for plan in plans
                if tier_index in plan.probes
            ]
            if batches:
                self.tiers[tier_index].probe_cache_run(batches)

    def _walk_range(
        self,
        plan: FetchPlan,
        lo: int,
        hi: int,
        resolution: Optional[Tuple[Dict[int, CacheProbe], np.ndarray]] = None,
    ) -> None:
        """Probe the caches for rows ``[lo, hi)`` of a plan that promotes,
        in walk order.

        A hit in a cache below the fastest one is promoted into the faster
        caches mid-walk, so each cache sees, row by row, a probe followed
        (for a promoted row) by a fill.  One ordered probe-with-promotion
        per cache replays that sequence for the whole range — exactly,
        unless a fill changes what a later probe of the same range finds.
        So the range's ``resolution`` (the plan's own for the whole
        request) is first certified: no promoted row occurs twice, and no
        promotion target would evict a row the range hits there
        (:meth:`UnifiedRowCache.promotion_hazard`, on the resolved slots).
        A range that fails is walked as two halves, each resolved against
        the state the rows before it left; a single row needs no
        certificate, because probe-then-fill of one row *is* the per-row
        sequence.

        Writes the cache that served each row into ``plan.found`` and the
        range's probes into ``plan.num_probes``.
        """
        keys, homes = plan.keys[lo:hi], plan.home_tiers[lo:hi]
        probes, found = (
            resolution if resolution is not None else self._resolve(keys, homes, plan.row_len)[:2]
        )
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
                self._caches[tier_index].promotion_hazard(
                    probes[tier_index][2], int(np.count_nonzero(promoted)), plan.row_len
                )
                for tier_index, promoted in promoted_into.items()
            ):
                mid = (lo + hi) // 2
                self._walk_range(plan, lo, mid)
                self._walk_range(plan, mid, hi)
                return

        # Mutating probes, one per cached tier (the caches are independent).
        for tier_index in self._cached_tiers:
            probe = probes.get(tier_index)
            if probe is None:
                continue
            positions, probed_keys, slots = probe
            batch = (probed_keys, slots, plan.row_len)
            tier = self.tiers[tier_index]
            promoted = promoted_into.get(tier_index)
            if promoted is None:
                tier.probe_cache_run([batch])
            else:
                tier.probe_cache_and_promote(
                    batch, promoted if positions is None else promoted[positions]
                )
            plan.num_probes += int(probed_keys.size)
        plan.found[lo:hi] = found

    # ------------------------------------------------------------- complete
    def fetch_batch(self, plan: FetchPlan, start_time: float) -> BatchFetchOutcome:
        """Complete the request ``plan`` resolved (:meth:`plan`), once a run
        probe (:meth:`probe_run`) has walked the caches for it.

        Two phases.  The host walks the request in order: each row
        probes the caches above its home tier, a hit pays the cache tier's
        media time and is promoted into the faster caches right away, and a
        row homed on tier 0 is read at fast-memory cost.  Then every miss is
        submitted to its home tier's devices at the time the walk ended, all
        tiers concurrently, and the rows read are promoted per policy.

        Each device tier gets one grouped ``read_rows_batch``, and time is
        charged as a per-row walk would charge it — per row, one probe
        increment per cache probed, then the hit's or fast read's
        increment, summed with ``np.add.accumulate``, whose left-to-right
        addition chain makes the accrued floats bit-identical to ``+=``.
        """
        table_name, row_len = plan.table_name, plan.row_len
        stored, home_tiers, found = plan.stored, plan.home_tiers, plan.found
        count = int(stored.size)

        # Rows no cache served: tier-0-homed ones are fast-memory reads, the
        # rest are misses.
        unserved = plan.unserved
        fast_rows = misses = unserved
        if unserved.size:
            unserved_homes = home_tiers[unserved]
            fast_rows = unserved[unserved_homes == 0]
            misses = unserved[unserved_homes != 0]
        num_fast = int(fast_rows.size)
        if num_fast:
            fast = self.tiers[0]
            fast.stats.rows_served += num_fast
            fast.stats.bytes_served += num_fast * row_len

        # The walk's time accrual: per row, one probe charge per cache it
        # probed, then the hit's media time or the fast read.  A zero
        # increment is bitwise-neutral on the positive cursor, so when every
        # hit and read is free the walk is its probe charges alone.
        terminal: Optional[np.ndarray] = None
        for tier_index in self._cached_tiers:
            hit_seconds = self.tiers[tier_index].cache_hit_seconds(row_len)
            if not hit_seconds:
                continue
            hits_here = found == tier_index
            if bool(hits_here.any()):
                terminal = np.zeros(count) if terminal is None else terminal
                terminal[hits_here] = hit_seconds
        if num_fast:
            terminal = np.zeros(count) if terminal is None else terminal
            terminal[fast_rows] = self.fm_lookup_overhead + row_len / self.fm_bandwidth
        if terminal is None:
            cursor = charge_repeatedly(start_time, self.cache_probe_seconds, plan.num_probes)
        else:
            # Per row: the cached tiers up to the one that served it, else
            # every cached tier above its home.
            probed = (
                np.searchsorted(
                    self._cached_array, np.where(found >= 0, found, home_tiers - 1), side="right"
                )
                if plan.cache_enabled
                else np.zeros(count, dtype=np.int64)
            )
            ends = np.cumsum(probed + 1)
            chain = np.full(int(ends[-1]) + 1, self.cache_probe_seconds)
            chain[0] = start_time
            chain[ends] = terminal
            cursor = float(np.add.accumulate(chain)[-1])

        cache_hits = count - int(unserved.size)
        outcome = BatchFetchOutcome(completion_time=start_time, cache_hits=cache_hits)
        recorder = self.recorder
        if recorder.enabled and cursor > start_time:
            # The serial host walk: cache probes, cache hits, fast-tier reads.
            recorder.span(
                "walk",
                "chain",
                start_time,
                cursor - start_time,
                args={
                    "probe_seconds": _probe_seconds(self.cache_probe_seconds, plan.num_probes),
                    "cache_hits": cache_hits,
                    "fast_rows": num_fast,
                },
            )

        # Misses: grouped by home tier in order of first occurrence, one
        # batch submission per tier at the end of the walk, then promotion
        # fills target by target (each cache sees its fills in row order).
        io_done = cursor
        for tier_index, rows_at in first_occurrence_groups(home_tiers, misses):
            tier = self.tiers[tier_index]
            assert isinstance(tier, DeviceTier)
            targets = self._promotion_targets(tier_index) if plan.cache_enabled else []
            num_reads = int(rows_at.size)
            completions = tier.read_rows_batch(table_name, stored[rows_at], cursor)
            group_done = max(cursor, float(completions.max()))
            for target in targets:
                self.tiers[target].fill_cache_batch(row_len, plan.keys[rows_at])
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
