"""Pooled embedding cache (section 4.4, Algorithm 1) and its profiling.

For every embedding operator, ``p_i`` rows are read, dequantised and pooled.
If the *pooled result* for the exact index sequence is already cached, all of
that work is skipped.  The paper profiles subsequence-caching schemes
(Table 3) and concludes only the full-sequence case (``c = P``) has low
enough overhead to be practical, observing ~5% hit rate; Table 4 sweeps the
``LenThreshold`` knob.

Keys are an order-invariant hash of the index multiset, so ``[3, 1, 2]`` and
``[2, 3, 1]`` hit the same entry (pooling is a sum and therefore order
invariant).  An entry is a key and the pooled vector's size in bytes: the
cache decides hits, evictions and counts, and a hit's vector is the pooling
of the request itself, computed when scores are read
(:meth:`~repro.dlrm.inference.InferenceEngine.score`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cache.lru import LRUCache
from repro.sim.state import COUNTER

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """A small, stable 64-bit mixer (used per index before combining)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def order_invariant_hash(indices: Sequence[int]) -> int:
    """Hash of an index sequence that is invariant to ordering.

    Each index is mixed through splitmix64 and the results are summed modulo
    2^64; summation is commutative, hence order invariance, while the mixing
    keeps distinct multisets from colliding the way a plain sum would.
    """
    if len(indices) == 0:
        raise ValueError("cannot hash an empty index sequence")
    total = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"indices must be non-negative: {index}")
        total = (total + _splitmix64(int(index))) & _MASK64
    # Fold in the multiset size so {1} and {1, 1} differ even under collisions.
    return (total ^ _splitmix64(len(indices))) & _MASK64


_SPLITMIX_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def order_invariant_hash_batch(indices: np.ndarray) -> int:
    """Vectorised :func:`order_invariant_hash`; produces the identical value.

    splitmix64 on a uint64 ndarray: numpy's unsigned arithmetic wraps modulo
    2^64 exactly like the masked scalar chain, and the commutative sum means
    one ``sum(dtype=uint64)`` matches the scalar left-to-right accumulation.
    The cache keys its entries with this one; Table 3's profiling uses the
    scalar form.
    """
    array = np.asarray(indices, dtype=np.int64)
    if array.size == 0:
        raise ValueError("cannot hash an empty index sequence")
    negative = array < 0
    if bool(negative.any()):
        raise ValueError(f"indices must be non-negative: {int(array[negative][0])}")
    with np.errstate(over="ignore"):
        mixed = array.astype(np.uint64) + _SPLITMIX_GOLDEN
        mixed = (mixed ^ (mixed >> np.uint64(30))) * _SPLITMIX_MUL1
        mixed = (mixed ^ (mixed >> np.uint64(27))) * _SPLITMIX_MUL2
        mixed ^= mixed >> np.uint64(31)
        total = int(mixed.sum(dtype=np.uint64))
    return (total ^ _splitmix64(int(array.size))) & _MASK64


@dataclass
class PooledCacheStats:
    """Hit/miss counters plus the average hit sequence length (Table 4)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    skipped_short: int = 0
    hit_index_count: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def average_hit_length(self) -> float:
        if self.hits == 0:
            return 0.0
        return self.hit_index_count / self.hits


class PooledEmbeddingCache:
    """Caches pooled (already dequantised and summed) embedding vectors,
    by key and size."""

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"stats": COUNTER}

    def __init__(self, capacity_bytes: int, len_threshold: int = 1) -> None:
        if len_threshold < 0:
            raise ValueError(f"len_threshold must be non-negative: {len_threshold}")
        self.len_threshold = len_threshold
        # Per-item overhead mirrors the CPU-optimised cache since pooled
        # float32 vectors are comparatively large.
        self._cache = LRUCache(capacity_bytes, per_item_overhead_bytes=56)
        self.stats = PooledCacheStats()

    @property
    def capacity_bytes(self) -> int:
        return self._cache.capacity_bytes

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    @property
    def item_count(self) -> int:
        return self._cache.item_count

    def eligible(self, indices: Sequence[int]) -> bool:
        """Algorithm 1's ``doPooledEmbCache`` predicate."""
        return len(indices) > self.len_threshold

    def probe_batch(self, table_name: str, indices: np.ndarray) -> bool:
        """Whether the pooled vector of this exact index multiset is cached."""
        array = np.asarray(indices, dtype=np.int64)
        if not int(array.size) > self.len_threshold:
            self.stats.skipped_short += 1
            return False
        self.stats.lookups += 1
        if self._cache.get((table_name, order_invariant_hash_batch(array))) is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        self.stats.hit_index_count += int(array.size)
        return True

    def put_batch(self, table_name: str, indices: np.ndarray, size_bytes: int) -> bool:
        """Enter the ``size_bytes``-byte pooled vector of this index multiset."""
        array = np.asarray(indices, dtype=np.int64)
        if not int(array.size) > self.len_threshold:
            return False
        inserted = self._cache.put((table_name, order_invariant_hash_batch(array)), size_bytes)
        if inserted:
            self.stats.inserts += 1
        return inserted


# ---------------------------------------------------------------------------
# Profiling of subsequence caching schemes (Table 3).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsequenceProfile:
    """One row of Table 3."""

    scheme: str
    hit_rate: float
    generated_sequences_per_query: float


def _full_sequence_hits(sequences: Sequence[Sequence[int]]) -> int:
    seen: set = set()
    hits = 0
    for sequence in sequences:
        key = order_invariant_hash(sequence)
        if key in seen:
            hits += 1
        else:
            seen.add(key)
    return hits


def _shared_subset_hits(
    sequences: Sequence[Sequence[int]],
    subset_size: int,
    restrict_to_top: Optional[int] = None,
) -> int:
    """Queries sharing at least ``subset_size`` indices with an earlier query.

    Sharing ``c`` indices with an earlier request means some subsequence of
    length ``c`` repeats, which is what the ``c = 10`` schemes in Table 3
    count.  ``restrict_to_top`` limits matching to the N most frequent
    indices (the paper's "top indices" variant).
    """
    top_only: Optional[set] = None
    if restrict_to_top is not None:
        counts: Dict[int, int] = defaultdict(int)
        for sequence in sequences:
            for index in sequence:
                counts[index] += 1
        ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
        top_only = {index for index, _ in ranked[:restrict_to_top]}

    postings: Dict[int, List[int]] = defaultdict(list)
    hits = 0
    for query_id, sequence in enumerate(sequences):
        candidates = set(sequence)
        if top_only is not None:
            candidates &= top_only
        overlap_counts: Dict[int, int] = defaultdict(int)
        is_hit = False
        for index in candidates:
            for earlier in postings[index]:
                overlap_counts[earlier] += 1
                if overlap_counts[earlier] >= subset_size:
                    is_hit = True
                    break
            if is_hit:
                break
        if is_hit:
            hits += 1
        for index in candidates:
            postings[index].append(query_id)
    return hits


def profile_subsequence_schemes(
    sequences: Sequence[Sequence[int]],
    subsequence_length: int = 10,
    top_indices: int = 100,
) -> List[SubsequenceProfile]:
    """Reproduce Table 3's comparison of subsequence caching schemes.

    ``sequences`` is the per-query index sequence for one table.  Returns a
    profile per scheme: ``c = 10`` (any repeated 10-index subset),
    ``c = 10 top-indices`` (only the globally hottest indices considered) and
    ``c = P`` (the full sequence must repeat -- the practical scheme).
    """
    if not sequences:
        raise ValueError("profile needs at least one query sequence")
    if subsequence_length <= 0:
        raise ValueError(f"subsequence_length must be positive: {subsequence_length}")
    total = len(sequences)
    avg_pooling = sum(len(sequence) for sequence in sequences) / total

    eligible = [s for s in sequences if len(s) >= subsequence_length]
    general_hits = _shared_subset_hits(eligible, subsequence_length) if eligible else 0
    top_hits = (
        _shared_subset_hits(eligible, subsequence_length, restrict_to_top=top_indices)
        if eligible
        else 0
    )
    full_hits = _full_sequence_hits(sequences)

    generated_general = float(comb(int(round(avg_pooling)), subsequence_length)) if avg_pooling >= subsequence_length else 0.0
    return [
        SubsequenceProfile(
            scheme=f"c={subsequence_length}",
            hit_rate=general_hits / total,
            generated_sequences_per_query=generated_general,
        ),
        SubsequenceProfile(
            scheme=f"c={subsequence_length}, top indices",
            hit_rate=top_hits / total,
            generated_sequences_per_query=float(top_indices),
        ),
        SubsequenceProfile(
            scheme="c=P",
            hit_rate=full_hits / total,
            generated_sequences_per_query=1.0,
        ),
    ]
