"""Bounded Zipf (power-law) index generation.

Access to embedding rows follows a power law for the majority of categorical
features (Figure 4).  The generator maps popularity ranks onto a random
permutation of the row-id space so popular rows are scattered across the
table -- which is exactly why the paper observes little *spatial* locality
despite strong *temporal* locality.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.dlrm.embedding import Bags
from repro.sim.rng import make_rng


#: Ids drawn ahead of consumption per buffer refill.
_READ_AHEAD = 4096


class ZipfGenerator:
    """Samples row indices with a bounded Zipf popularity distribution.

    The id stream is drawn ahead of consumption: one ``rng.random`` →
    ``searchsorted`` → id-map gather per :data:`_READ_AHEAD` ids refills a
    buffer that every call reads from.  ``random(n)`` then ``random(m)``
    yields the same PCG64 values as ``random(n + m)``, so each call sees
    exactly the ids it would have drawn itself and outputs are identical to
    unbuffered sampling; the only visible difference is that ``_rng`` runs
    ahead of what callers have consumed.
    """

    #: Most first-round ids :meth:`sample_unique_bags` dedupes in one pass
    #: (a single bag whose window is larger goes alone).
    _CHUNK_IDS = 1 << 16

    def __init__(
        self,
        num_items: int,
        alpha: float = 1.05,
        seed: int = 0,
        shuffle_ids: bool = True,
    ) -> None:
        if num_items <= 0:
            raise ValueError(f"num_items must be positive: {num_items}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive: {alpha}")
        self.num_items = num_items
        self.alpha = alpha
        self._rng = make_rng(seed, "zipf", num_items, alpha)
        ranks = np.arange(1, num_items + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if shuffle_ids:
            self._id_map = self._rng.permutation(num_items)
        else:
            self._id_map = np.arange(num_items)
        # Drawn-but-unconsumed ids, oldest first.
        self._ahead = np.empty(0, dtype=np.int64)

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` ids of the stream (a view; do not write to it)."""
        ahead = self._ahead
        if count > ahead.size:
            uniform = self._rng.random(max(count - ahead.size, _READ_AHEAD))
            ranks = np.searchsorted(self._cdf, uniform, side="left")
            ahead = np.concatenate([ahead, self._id_map[ranks]])
            # A copy, so a large take's buffer is freed with the caller's view.
            self._ahead = ahead[count:].copy()
        else:
            self._ahead = ahead[count:]
        return ahead[:count]

    def _untake(self, ids: np.ndarray) -> None:
        """Return the unconsumed tail of the last :meth:`_take` to the stream."""
        self._ahead = np.concatenate([ids, self._ahead])

    def sample_ids(self, count: int = 1, unique: bool = False) -> List[int]:
        """Draw ``count`` indices as a list; with ``unique`` none repeats.

        A unique draw is the one-bag case of :meth:`sample_unique_bags`.
        """
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        if not unique:
            return self._take(count).tolist()
        return self.sample_unique_bags([count]).indices.tolist()

    def sample_unique_bags(self, counts: Sequence[int]) -> Bags:
        """One bag of ``counts[b]`` distinct ids per ``b``, drawn in order.

        Each bag is rejection sampling in rounds of ``2 * needed + 8`` ids,
        every round keeping the first occurrence of each not-yet-chosen id
        in draw order; pooling factors are far smaller than table
        cardinality, so one round almost always suffices.  All bags' first
        rounds are therefore taken together, at most :attr:`_CHUNK_IDS` ids
        at a time, and deduplicated with one stable sort; the first bag that
        comes up short keeps its first round, returns the later bags' ids to
        the stream and finishes round by round before the batch resumes
        after it.  The stream position afterwards is exactly that of drawing
        the bags one by one.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError(f"counts must be one-dimensional, got shape {counts.shape}")
        if counts.size and counts.min() <= 0:
            raise ValueError(f"count must be positive: {counts.min()}")
        if counts.size and counts.max() > self.num_items:
            raise ValueError(
                f"cannot draw {counts.max()} unique indices from {self.num_items} items"
            )
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        indices = np.empty(offsets[-1], dtype=np.int64)
        windows = 2 * counts + 8
        window_ends = np.cumsum(windows)
        first = 0
        while first < counts.size:
            # The bags from ``first`` whose first rounds fit in one chunk.
            budget = (window_ends[first - 1] if first else 0) + self._CHUNK_IDS
            last = max(int(np.searchsorted(window_ends, budget, side="right")), first + 1)
            first += self._first_rounds(
                counts[first:last], windows[first:last], indices[offsets[first] : offsets[last]]
            )
        return Bags(indices, offsets)

    def _first_rounds(self, counts: np.ndarray, windows: np.ndarray, out: np.ndarray) -> int:
        """Fill ``out`` with the leading bags of ``counts`` from one take of
        their first rounds (``windows`` ids each); return how many bags are
        complete."""
        ids = self._take(int(windows.sum()))
        # A stable sort on (bag, id) puts each bag's copies of an id next to
        # each other in draw order, so the first of every run is the first
        # occurrence.
        keys = np.repeat(np.arange(counts.size), windows) * self.num_items + ids
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first_seen = np.empty(ids.size, dtype=bool)
        first_seen[order[0]] = True
        first_seen[order[1:]] = ordered[1:] != ordered[:-1]
        # A bag keeps its first ``count`` first occurrences.
        seen = np.cumsum(first_seen)
        ends = np.cumsum(windows)
        seen_before = np.concatenate(([0], seen[ends[:-1] - 1]))
        keep = first_seen & (seen <= np.repeat(seen_before + counts, windows))
        short = np.flatnonzero(seen[ends - 1] - seen_before < counts)
        if short.size == 0:
            out[:] = ids[keep]
            return counts.size

        bag = int(short[0])
        start, end = int(ends[bag] - windows[bag]), int(ends[bag])
        filled = int(counts[:bag].sum())
        out[:filled] = ids[:start][keep[:start]]
        self._untake(ids[end:])
        chosen = dict.fromkeys(ids[start:end].tolist())
        count = int(counts[bag])
        while len(chosen) < count:
            needed = count - len(chosen)
            chosen.update(dict.fromkeys(self._take(2 * needed + 8).tolist()))
        out[filled : filled + count] = list(chosen)[:count]
        return bag + 1

    def sample(self, count: int = 1, unique: bool = False) -> np.ndarray:
        """:meth:`sample_ids` as an int64 ndarray."""
        return np.array(self.sample_ids(count, unique), dtype=np.int64)
