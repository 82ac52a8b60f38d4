"""Structure-of-arrays LRU row cache with whole-batch operations.

Drop-in replacement for the :class:`~repro.cache.lru.LRUCache` eviction
machinery, bit-identical in every observable — hit/miss/eviction counters,
modelled CPU seconds, eviction order, ``used_bytes`` — but organised as
parallel arrays so a whole batch of row keys can be probed, filled or evicted
with a handful of NumPy operations instead of one dict transaction per row:

* a key is one int ``>= 0`` that names a stored row (anything else is a
  ``ValueError``: a negative key would alias ``index[-1]``), resolved
  through one int64 direct-index array (key -> slot, ``-1`` absent); each
  slot records its key in one array.  The cache knows no tables: the tier
  chain numbers every stored row of every table once
  (:meth:`~repro.hierarchy.chain.TierChain.row_keys`),
* an entry holds no row bytes: a slot records the row's length, which is
  what the byte budget counts, and a batched probe returns a hit mask,
* recency is an append-only log of slots: every touch (hit or insert) appends
  the slot and stamps it with its 1-based log position.  Stamps are therefore
  monotone, the log is sorted by stamp, an entry is *live* iff its slot still
  carries that stamp, and the LRU victims are always the live prefix behind
  ``_log_head``.  Compaction renumbers the live entries ``1..n`` in order when
  the log fills up, which preserves every comparison the cache ever makes.

CPU-time accounting replicates ``LRUCache``'s float accumulation exactly:
``np.add.accumulate`` performs the same left-to-right chain of additions a
per-row ``+=`` loop would, so ``stats.cpu_seconds`` stays bitwise equal.
"""

from __future__ import annotations

from itertools import accumulate
from typing import ClassVar, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.base import CacheKey, RowCache
from repro.sim.clock import charge_repeatedly
from repro.sim.state import CONTENTS

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)

#: One batch of a run probe: ``(keys, slots, row_len)``, the slots as the
#: cache resolved the keys (``-1``: absent).
ResolvedBatch = Tuple[np.ndarray, np.ndarray, int]


class _IdAllocator:
    """Hands out int ids: recycled ones first (LIFO), then fresh ones.

    The owner sizes its arrays to ``high`` (the count of ids ever handed
    out) after every allocation.
    """

    __slots__ = ("free", "num_free", "high")

    def __init__(self) -> None:
        self.free = np.zeros(16, dtype=np.int64)
        self.num_free = 0
        self.high = 0

    def alloc_one(self) -> int:
        if self.num_free:
            self.num_free -= 1
            return int(self.free[self.num_free])
        self.high += 1
        return self.high - 1

    def alloc(self, count: int) -> np.ndarray:
        recycled = min(count, self.num_free)
        self.num_free -= recycled
        fresh = count - recycled
        ids = np.concatenate(
            (
                self.free[self.num_free : self.num_free + recycled],
                np.arange(self.high, self.high + fresh, dtype=np.int64),
            )
        )
        self.high += fresh
        return ids

    def _reserve(self, extra: int) -> None:
        needed = self.num_free + extra
        if needed > self.free.size:
            grown = np.zeros(max(needed, self.free.size * 2), dtype=np.int64)
            grown[: self.num_free] = self.free[: self.num_free]
            self.free = grown

    def release_one(self, value: int) -> None:
        self._reserve(1)
        self.free[self.num_free] = value
        self.num_free += 1

    def release(self, ids: np.ndarray) -> None:
        self._reserve(int(ids.size))
        self.free[self.num_free : self.num_free + ids.size] = ids
        self.num_free += int(ids.size)


class SoALRUCache(RowCache):
    """Byte-budgeted LRU cache over structure-of-arrays storage.

    Constructor parameters and scalar ``get``/``put`` semantics mirror
    :class:`~repro.cache.lru.LRUCache` exactly; the batch methods
    (:meth:`probe_run`, :meth:`probe_and_promote`, :meth:`fill_batch`) are the
    array-native equivalents of calling the scalar operations once per row
    in input order.  Scalar operations stay O(1) Python (they touch array
    elements, never whole arrays); batch mutation — insertion, eviction,
    promotion — is a fixed number of array operations per call.

    State, per slot: entry size (the row's length), key and recency stamp
    (``0`` marks a free slot).
    ``_log[i]`` is the slot touched at stamp ``i + 1``.  Everything
    :meth:`_drop_entries` sets is the cache's contents.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = dict.fromkeys(
        (
            "_slots", "_slot_len", "_slot_key", "_slot_stamp", "_index", "_log",
            "_log_head", "_log_tail", "_count", "_used_bytes",
        ),
        CONTENTS,
    )

    def __init__(
        self,
        capacity_bytes: int,
        per_item_overhead_bytes: int = 32,
        lookup_cpu_seconds: float = 2.0e-7,
        insert_cpu_seconds: float = 4.0e-7,
    ) -> None:
        super().__init__(capacity_bytes)
        if per_item_overhead_bytes < 0:
            raise ValueError(
                f"per_item_overhead_bytes must be non-negative: {per_item_overhead_bytes}"
            )
        self.per_item_overhead_bytes = per_item_overhead_bytes
        self.lookup_cpu_seconds = lookup_cpu_seconds
        self.insert_cpu_seconds = insert_cpu_seconds
        self._drop_entries()

    # ------------------------------------------------------------- internals
    def _drop_entries(self) -> None:
        """(Re)initialise all cached state; counters are left alone."""
        self._slots = _IdAllocator()
        self._slot_len = np.zeros(0, dtype=np.int64)
        self._slot_key = np.zeros(0, dtype=np.int64)
        self._slot_stamp = np.zeros(0, dtype=np.int64)
        self._index = _EMPTY_IDS
        self._log = np.zeros(64, dtype=np.int64)
        self._log_head = 0
        self._log_tail = 0
        self._count = 0
        self._used_bytes = 0

    @staticmethod
    def _checked_key(key: CacheKey) -> int:
        """A row key as an int, checked before it touches any state or
        counter."""
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool) and key >= 0:
            return int(key)
        raise ValueError(f"row cache keys are ints >= 0: {key!r}")

    def _index_for(self, min_size: int) -> np.ndarray:
        index = self._index
        if index.size < min_size:
            grown = np.full(max(min_size, index.size * 2, 64), -1, dtype=np.int64)
            grown[: index.size] = index
            self._index = index = grown
        return index

    def _fit_slots(self) -> None:
        """Grow the per-slot arrays to cover every slot id handed out."""
        old = self._slot_stamp.size
        if self._slots.high <= old:
            return
        new = max(self._slots.high, old * 2, 16)
        for name in ("_slot_len", "_slot_key", "_slot_stamp"):
            grown = np.zeros(new, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)

    def _entry_size(self, value_len: int) -> int:
        return value_len + self.per_item_overhead_bytes

    def _find(self, key: int) -> int:
        """Slot holding ``key``, or ``-1``."""
        index = self._index
        return int(index[key]) if key < index.size else -1

    def _reserve_log(self, extra: int) -> None:
        """Make room for ``extra`` appends, compacting the log when full.

        Compaction keeps the live entries in order and renumbers their stamps
        ``1..n``; every recency comparison is between live stamps, so nothing
        observable changes.
        """
        if self._log_tail + extra <= self._log.size:
            return
        window = self._log[self._log_head : self._log_tail]
        stamps = np.arange(self._log_head + 1, self._log_tail + 1, dtype=np.int64)
        live = window[self._slot_stamp[window] == stamps]
        count = int(live.size)
        if 2 * (count + extra) > self._log.size:
            self._log = np.zeros(max(2 * (count + extra), self._log.size * 2), dtype=np.int64)
        self._log[:count] = live
        self._slot_stamp[live] = np.arange(1, count + 1, dtype=np.int64)
        self._log_head = 0
        self._log_tail = count

    def _touch(self, slot: int) -> None:
        """Stamp ``slot`` most-recent: one log append."""
        if self._log_tail == self._log.size:
            self._reserve_log(1)
        self._log[self._log_tail] = slot
        self._log_tail += 1
        self._slot_stamp[slot] = self._log_tail

    def _touch_batch(self, slots: np.ndarray, stamps: np.ndarray) -> None:
        """Stamp ``slots`` with ascending ``stamps`` the caller reserved; a
        slot listed twice keeps its last stamp, and its earlier log entry is
        thereby dead."""
        self._log[stamps - 1] = slots
        self._slot_stamp[slots] = stamps

    def _touch_run(self, slots: np.ndarray) -> None:
        """Stamp ``slots`` most-recent, in order: one run of log appends."""
        self._reserve_log(int(slots.size))
        tail = self._log_tail + int(slots.size)
        self._log[self._log_tail : tail] = slots
        self._slot_stamp[slots] = np.arange(self._log_tail + 1, tail + 1, dtype=np.int64)
        self._log_tail = tail

    def _insert_entry(self, key: int, row_len: int) -> None:
        slot = self._slots.alloc_one()
        self._fit_slots()
        self._slot_len[slot] = row_len
        self._slot_key[slot] = key
        self._index_for(key + 1)[key] = slot
        self._touch(slot)
        self._count += 1
        self._used_bytes += self._entry_size(row_len)

    def _remove_slot(self, slot: int) -> None:
        row_len = int(self._slot_len[slot])
        self._index[self._slot_key[slot]] = -1
        self._slot_stamp[slot] = 0
        self._slots.release_one(slot)
        self._count -= 1
        self._used_bytes -= self._entry_size(row_len)

    def _remove_slots(self, slots: np.ndarray) -> None:
        """Bulk :meth:`_remove_slot`."""
        self._index[self._slot_key[slots]] = -1
        lens = self._slot_len[slots]
        self._slot_stamp[slots] = 0
        self._slots.release(slots)
        self._count -= int(slots.size)
        self._used_bytes -= int(lens.sum()) + int(slots.size) * self.per_item_overhead_bytes

    def _evict_lru(self) -> None:
        log, stamps = self._log, self._slot_stamp
        head = self._log_head
        while True:
            slot = int(log[head])
            head += 1
            if stamps[slot] == head:
                break
        self._log_head = head
        self._remove_slot(slot)

    def _evict_until_fits(self, needed: int) -> None:
        while self._count and self._used_bytes + needed > self.capacity_bytes:
            self._evict_lru()
            self.stats.evictions += 1

    def _lru_prefix(self, need: int, size_guess: int) -> Tuple[np.ndarray, int, int]:
        """The least-recent live entries whose sizes sum to ``>= need`` bytes.

        Returns ``(slots, new_head, freed_bytes)`` without mutating anything;
        ``freed_bytes < need`` means the whole cache is not enough.  Every
        live entry with a stamp ``<= new_head`` is in ``slots``.
        """
        position = self._log_head
        chunk = max(64, 2 * (need // size_guess + 1))
        freed = 0
        taken: List[np.ndarray] = []
        while freed < need and position < self._log_tail:
            end = min(position + chunk, self._log_tail)
            window = self._log[position:end]
            live = self._slot_stamp[window] == np.arange(position + 1, end + 1, dtype=np.int64)
            sizes = np.where(live, self._slot_len[window] + self.per_item_overhead_bytes, 0)
            running = np.cumsum(sizes) + freed
            cut = int(np.searchsorted(running, need)) + 1  # entries consumed
            if cut <= window.size:
                taken.append(window[:cut][live[:cut]])
                freed = int(running[cut - 1])
                position += cut
                break
            taken.append(window[live])
            freed = int(running[-1])
            position = end
            chunk *= 4
        slots = taken[0] if len(taken) == 1 else np.concatenate(taken or [_EMPTY_IDS])
        return slots, position, freed

    def _evict_for(self, count: int, size: int) -> int:
        """Evict the LRU prefix that makes room for ``count`` new entries of
        ``size`` bytes (at most the whole cache); returns the entries evicted."""
        need = self._used_bytes + count * size - self.capacity_bytes
        if need <= 0:
            return 0
        victims, self._log_head, _ = self._lru_prefix(need, size)
        self._remove_slots(victims)
        return int(victims.size)

    def _insert_rows(self, keys: np.ndarray, row_len: int) -> np.ndarray:
        """Enter new, distinct ``row_len``-byte rows and return their slots;
        the caller made room and stamps them."""
        count = int(keys.size)
        slots = self._slots.alloc(count)
        self._fit_slots()
        self._slot_len[slots] = row_len
        self._slot_key[slots] = keys
        self._index_for(int(keys.max()) + 1)[keys] = slots
        self._count += count
        self._used_bytes += count * self._entry_size(row_len)
        return slots

    def lookup_slots(self, keys: np.ndarray) -> np.ndarray:
        """Slot of every key of an int64 array, ``-1`` when absent.

        Non-mutating.  The slots stay valid until an entry is inserted or
        removed; probes only touch recency, so a run of probes can share one
        resolution (:meth:`probe_run`).  A negative key is a ``ValueError``.
        """
        if keys.size == 0:
            return _EMPTY_IDS
        index = self._index
        # As unsigned, a negative key is huge: one reduction bounds both ends.
        if int(keys.view(np.uint64).max()) < index.size:
            return index[keys]
        if int(keys.min()) < 0:
            raise ValueError("negative row cache key")
        slots = np.full(keys.size, -1, dtype=np.int64)
        in_range = keys < index.size
        slots[in_range] = index[keys[in_range]]
        return slots

    # ------------------------------------------------------------ scalar API
    def get(self, key: CacheKey) -> Optional[int]:
        row_key = self._checked_key(key)
        self.stats.cpu_seconds += self.lookup_cpu_seconds
        slot = self._find(row_key)
        if slot < 0:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(slot)
        return int(self._slot_len[slot])

    def put(self, key: CacheKey, size: int) -> bool:
        row_key = self._checked_key(key)
        self.stats.cpu_seconds += self.insert_cpu_seconds
        entry_size = self._entry_size(size)
        if entry_size > self.capacity_bytes:
            self.stats.rejected_inserts += 1
            return False
        slot = self._find(row_key)
        if slot >= 0:
            self._remove_slot(slot)
        self._evict_until_fits(entry_size)
        self._insert_entry(row_key, size)
        self.stats.inserts += 1
        return True

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def item_count(self) -> int:
        return self._count

    def keys(self) -> Iterator[int]:
        """Iterate keys from least to most recently used (for inspection)."""
        live = np.nonzero(self._slot_stamp > 0)[0]
        ordered = live[np.argsort(self._slot_stamp[live], kind="stable")]
        return iter(self._slot_key[ordered].tolist())

    # ------------------------------------------------------------- batch API
    def probe_run(self, batches: Sequence[ResolvedBatch]) -> List[np.ndarray]:
        """Probe a run of batches resolved by :meth:`lookup_slots`, one
        batch after another.

        Equivalent to calling :meth:`get` once per key, batch by batch, in
        order — same hit/miss/CPU accounting, same final LRU order (for a
        repeated key the last occurrence wins).  The run's lookups are
        charged as one chain of ``lookup_cpu_seconds`` increments, hits and
        misses are counted once, and the hits are touched in batch order.
        Returns each batch's boolean hit mask.
        """
        sizes = [int(slots.size) for _, slots, _ in batches]
        total = sum(sizes)
        if total:
            self.stats.cpu_seconds = charge_repeatedly(
                self.stats.cpu_seconds, self.lookup_cpu_seconds, total
            )
        slots = batches[0][1] if len(batches) == 1 else np.concatenate([b[1] for b in batches])
        hit_mask = slots >= 0
        hit_slots = slots[hit_mask]
        hits = int(hit_slots.size)
        self.stats.hits += hits
        self.stats.misses += total - hits
        if hits:
            row_lens = [row_len for _, _, row_len in batches]
            self._check_row_lens(
                hit_slots,
                row_lens[0] if len(set(row_lens)) == 1 else np.repeat(row_lens, sizes)[hit_mask],
            )
            self._touch_run(hit_slots)
        if len(batches) == 1:
            return [hit_mask]
        bounds = list(accumulate(sizes, initial=0))
        return [hit_mask[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _check_row_lens(self, hit_slots: np.ndarray, expected: Union[int, np.ndarray]) -> None:
        """Every hit's cached length equals the ``row_len`` its probe
        expects (one int, or one per hit)."""
        wrong = self._slot_len[hit_slots] != expected
        if bool(wrong.any()):
            slot = int(hit_slots[int(np.argmax(wrong))])
            raise ValueError(
                f"row key {int(self._slot_key[slot])}: cached row length "
                f"{int(self._slot_len[slot])} differs from the probe's"
            )

    def probe_and_promote(
        self, keys: np.ndarray, slots: np.ndarray, row_len: int, promote_mask: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """:meth:`probe_run` of one batch of ``keys`` resolved to ``slots``
        (:meth:`lookup_slots`), with each key marked in ``promote_mask``
        put right after its probe; returns ``(hit_mask, admitted)``.

        This replays an interleaved walk: each marked key's :meth:`get` is
        immediately followed by ``put(key, row_len)`` — the promotion fill
        the tier chain performs when a row misses here and hits a slower
        cache.  Recency order, the ``cpu_seconds`` chain and the evicted
        entries equal that per-row sequence provided the marked keys are
        distinct misses and :meth:`promotion_hazard` returned ``False`` for
        this batch; the caller owns that precondition.  Rows too large for
        the cache are rejected exactly as :meth:`put` rejects them.
        """
        count = int(keys.size)
        fills = int(np.count_nonzero(promote_mask))
        # Row by row: the probe's charge, then the fill's.  Zero padding is
        # bitwise-neutral (x + 0.0 == x for the non-negative total).
        costs = np.zeros((count, 2), dtype=np.float64)
        costs[:, 0] = self.lookup_cpu_seconds
        costs[promote_mask, 1] = self.insert_cpu_seconds
        chain = np.concatenate(([self.stats.cpu_seconds], costs.ravel()))
        self.stats.cpu_seconds = float(np.add.accumulate(chain)[-1])
        hit_mask = slots >= 0
        hit_slots = slots[hit_mask]
        self.stats.hits += int(hit_slots.size)
        self.stats.misses += count - int(hit_slots.size)
        if hit_slots.size:
            self._check_row_lens(hit_slots, row_len)
        if self._entry_size(row_len) > self.capacity_bytes:
            # Every fill is rejected: charged above, nothing evicted.
            self.stats.rejected_inserts += fills
            if hit_slots.size:
                self._touch_run(hit_slots)
            return hit_mask, 0
        touches = int(hit_slots.size) + fills
        self._reserve_log(touches)
        # One stamp per hit and per fill in the same walk order: the probe's
        # stamp (if it hit), then the fill's (if the row is promoted).
        events = np.zeros((count, 2), dtype=np.int64)
        events[hit_mask, 0] = 1
        events[promote_mask, 1] = 1
        stamps = self._log_tail + np.cumsum(events.ravel()).reshape(count, 2)
        self._touch_batch(hit_slots, stamps[hit_mask, 0])
        self.stats.evictions += self._evict_for(fills, self._entry_size(row_len))
        filled = self._insert_rows(keys[promote_mask], row_len)
        self._touch_batch(filled, stamps[promote_mask, 1])
        self.stats.inserts += fills
        self._log_tail += touches
        return hit_mask, fills

    def promotion_hazard(self, slots: np.ndarray, num_fills: int, row_len: int) -> bool:
        """Would ``num_fills`` promotion fills interleaved with a batch's
        probes disturb a row the batch hits here?  Non-mutating.

        ``slots`` is the batch as :meth:`lookup_slots` resolved it; its
        entries ``>= 0`` are the rows the batch hits in this cache.
        ``True`` when the LRU prefix the fills evict is not made of rows the
        batch leaves alone — it reaches a row the batch hits, or swallows
        the whole cache and the fills themselves.  ``False`` certifies that
        evicting that prefix in one go equals a per-row walk's
        evict-as-you-go; a row too large to ever be admitted is rejected,
        which changes nothing a later probe can see.
        """
        size = self._entry_size(row_len)
        need = self._used_bytes + num_fills * size - self.capacity_bytes
        if need <= 0 or size > self.capacity_bytes:
            return False
        _, new_head, freed = self._lru_prefix(need, size)
        if freed < need:
            return True
        hit_slots = slots[slots >= 0]
        return bool(hit_slots.size) and int(self._slot_stamp[hit_slots].min()) <= new_head

    def fill_batch(self, row_len: int, keys: np.ndarray) -> int:
        """Insert a batch of ``row_len``-byte rows, one per key; equivalent
        to per-row :meth:`put` calls.

        Returns the number of rows admitted.  New, distinct rows — the miss
        path — take a fixed number of array operations: one LRU-prefix
        eviction, one insertion.  A batch larger than the cache enters only
        the tail that survives its own evictions; the rows before it count
        as inserted and evicted.  Only a batch that replaces a cached row or
        repeats a row is replayed through :meth:`put`, whose interleaving it
        depends on.  A negative key is a ``ValueError``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        count = int(keys.size)
        if count == 0:
            return 0
        size = self._entry_size(row_len)
        if size > self.capacity_bytes:
            self.stats.cpu_seconds = charge_repeatedly(
                self.stats.cpu_seconds, self.insert_cpu_seconds, count
            )
            self.stats.rejected_inserts += count
            return 0
        ordered = np.sort(keys)
        if int(ordered[0]) < 0:
            raise ValueError("negative row cache key")
        if bool((ordered[1:] == ordered[:-1]).any()) or bool((self.lookup_slots(keys) >= 0).any()):
            return sum(self.put(key, row_len) for key in keys.tolist())
        self.stats.cpu_seconds = charge_repeatedly(
            self.stats.cpu_seconds, self.insert_cpu_seconds, count
        )
        survivors = min(count, self.capacity_bytes // size)
        if survivors < count:
            # Every cached entry and the first count - survivors rows of this
            # batch are evicted by the rows behind them.
            self.stats.evictions += self._count + count - survivors
            self._drop_entries()
        else:
            self.stats.evictions += self._evict_for(count, size)
        self._touch_run(self._insert_rows(keys[count - survivors :], row_len))
        self.stats.inserts += count
        return count
