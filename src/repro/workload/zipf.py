"""Bounded Zipf (power-law) index generation.

Access to embedding rows follows a power law for the majority of categorical
features (Figure 4).  The generator maps popularity ranks onto a random
permutation of the row-id space so popular rows are scattered across the
table -- which is exactly why the paper observes little *spatial* locality
despite strong *temporal* locality.
"""

from __future__ import annotations

from typing import List

import numpy as np

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
        self._ahead = ahead[count:]
        return ahead[:count]

    def sample_ids(self, count: int = 1, unique: bool = False) -> List[int]:
        """Draw ``count`` indices as a list; with ``unique`` none repeats.

        Unique draws are rejection sampling in rounds of ``2 * needed + 8``
        ids, each round keeping the first occurrence of every not-yet-chosen
        id in draw order (a dict's insertion order is exactly that); pooling
        factors are far smaller than table cardinality, so one round almost
        always suffices.
        """
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        if not unique:
            return self._take(count).tolist()
        if count > self.num_items:
            raise ValueError(
                f"cannot draw {count} unique indices from {self.num_items} items"
            )
        chosen = dict.fromkeys(self._take(2 * count + 8).tolist())
        while len(chosen) < count:
            needed = count - len(chosen)
            chosen.update(dict.fromkeys(self._take(2 * needed + 8).tolist()))
        return list(chosen)[:count]

    def sample(self, count: int = 1, unique: bool = False) -> np.ndarray:
        """:meth:`sample_ids` as an int64 ndarray."""
        return np.array(self.sample_ids(count, unique), dtype=np.int64)

    def expected_top_fraction_coverage(self, fraction: float) -> float:
        """Analytic fraction of accesses landing on the hottest ``fraction`` of rows."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        top = max(int(round(fraction * self.num_items)), 1)
        return float(self._cdf[top - 1])

    def popularity_rank_of(self, index: int) -> int:
        """Rank (0 = hottest) of a row id, useful for assertions in tests."""
        positions = np.where(self._id_map == index)[0]
        if positions.size == 0:
            raise ValueError(f"index {index} is not in [0, {self.num_items})")
        return int(positions[0])
