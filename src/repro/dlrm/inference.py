"""Inference engine with pluggable embedding backends.

The key structural property the paper exploits (section 2.2) is that user
embeddings and item embeddings execute independently, and only the top MLP
depends on both: as long as fetching the user embeddings from slow memory
finishes no later than the item-side work, SM latency is hidden from the end
to end query latency (Equation 3/4).  The engine models exactly that overlap
and produces both the numerical scores and a latency breakdown.

Backends implement :class:`EmbeddingBackend`; the DRAM reference backend
lives here and the SDM backend in :mod:`repro.core.sdm`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dlrm.embedding import Bags, EmbeddingTable, pool_bags
from repro.dlrm.model import DLRMModel
from repro.sim.state import COUNTER, QUEUE, RUN_ROLES, reset


@dataclass(frozen=True)
class ComputeSpec:
    """Host (or accelerator) compute characteristics used for cost modelling.

    Attributes
    ----------
    flops_per_second:
        Dense compute throughput available to the MLPs.
    memory_bandwidth:
        Fast-memory bandwidth used for embedding reads served from DRAM/HBM.
    per_lookup_overhead:
        Fixed host cost per embedding row lookup (hashing, bounds checks).
    dequant_bytes_per_second:
        Throughput of dequantisation + pooling over quantised bytes.
    """

    flops_per_second: float = 2.0e12
    memory_bandwidth: float = 80.0e9
    per_lookup_overhead: float = 2.0e-7
    dequant_bytes_per_second: float = 20.0e9

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0:
            raise ValueError("flops_per_second must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")
        if self.per_lookup_overhead < 0:
            raise ValueError("per_lookup_overhead must be non-negative")
        if self.dequant_bytes_per_second <= 0:
            raise ValueError("dequant_bytes_per_second must be positive")

    def mlp_time(self, flops: float) -> float:
        return flops / self.flops_per_second

    def embedding_read_time(self, num_lookups: int, row_bytes: int) -> float:
        """Time to read + dequantise + pool ``num_lookups`` rows from FM.

        Elementwise over arrays: the batched DRAM backend passes a
        ``(tables, B)`` lookup matrix and a ``(tables, 1)`` row-size column.
        """
        total_bytes = num_lookups * row_bytes
        return (
            num_lookups * self.per_lookup_overhead
            + total_bytes / self.memory_bandwidth
            + total_bytes / self.dequant_bytes_per_second
        )


@dataclass
class Query:
    """One inference query: a user plus a batch of candidate items.

    ``user_indices`` maps user-table names to this user's int64 index array;
    ``item_indices`` maps item-table names to :class:`Bags` holding one bag
    per candidate item.  ``dense_features`` feed the bottom MLP.
    """

    query_id: int
    user_id: int
    dense_features: np.ndarray
    user_indices: Dict[str, np.ndarray]
    item_indices: Dict[str, Bags]

    @property
    def item_batch(self) -> int:
        if not self.item_indices:
            return 0
        sizes = {len(per_item) for per_item in self.item_indices.values()}
        if len(sizes) != 1:
            raise ValueError(
                f"query {self.query_id}: item tables disagree on batch size: {sorted(sizes)}"
            )
        return sizes.pop()

    def total_user_lookups(self) -> int:
        return sum(indices.size for indices in self.user_indices.values())

    def total_item_lookups(self) -> int:
        return sum(bags.indices.size for bags in self.item_indices.values())


@dataclass
class QueryResult:
    """Scores plus latency breakdown for one query."""

    query_id: int
    scores: np.ndarray
    latency: float
    bottom_mlp_time: float
    user_embedding_time: float
    item_embedding_time: float
    top_mlp_time: float

    @property
    def embedding_time(self) -> float:
        """Time of the embedding phase: user and item execute independently."""
        return max(self.user_embedding_time, self.item_embedding_time)


def _batch_size(requests: Mapping[str, Bags]) -> int:
    """Number of samples in a batched request (0 for no tables)."""
    sizes = {len(bags) for bags in requests.values()}
    if len(sizes) > 1:
        raise ValueError(f"tables disagree on batch size: {sorted(sizes)}")
    return sizes.pop() if sizes else 0


class EmbeddingBackend(abc.ABC):
    """Serves pooled embeddings for a set of tables.

    ``start_time`` and the returned completion time are simulated seconds;
    implementations decide whether lookups for different tables overlap.

    The run state a backend and its parts declare (:mod:`repro.sim.state`)
    is reset by role with three verbs, each putting the as-built values
    back: counters, the simulated-time queues, or everything.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {}

    @abc.abstractmethod
    def pooled_embeddings(
        self,
        requests: Mapping[str, Sequence[int]],
        start_time: float,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Return ({table: pooled vector}, completion_time) for one sample."""

    def pooled_embeddings_batch(
        self,
        requests: Mapping[str, Bags],
        start_time: float,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Return ({table: (B, dim) pooled matrix}, completion_time) for B samples.

        ``requests`` maps each table to its bags, one per sample; the
        samples are served back to back, sample ``b + 1`` starting when
        sample ``b`` completes.  This per-sample loop defines the result;
        an override must reproduce its vectors and completion time exactly.
        """
        per_sample: List[Dict[str, np.ndarray]] = []
        cursor = start_time
        for position in range(_batch_size(requests)):
            pooled, cursor = self.pooled_embeddings(
                {table_name: bags[position] for table_name, bags in requests.items()}, cursor
            )
            per_sample.append(pooled)
        stacked = {
            table_name: np.stack([pooled[table_name] for pooled in per_sample])
            for table_name in requests
        }
        return stacked, cursor

    def on_query_complete(self) -> None:
        """Hook called once per query (used for per-query statistics)."""

    def reset_stats(self) -> None:
        """Put every counter back to its as-built value (a device's as-built
        write counters are its table load)."""
        reset(self, {COUNTER})

    def reset_queues(self) -> None:
        """The warm-up boundary: drop everything stamped with simulated time
        (outstanding IOs, busy channels, in-flight faults); cached rows,
        mapped pages and counters carry over."""
        reset(self, {QUEUE})

    def restore_pristine(self) -> None:
        """Put every declared role but ``derived`` back to as-built (an
        attached trace recorder is detached): the backend-reuse contract of
        :mod:`repro.runtime.runtimes`, under which a run after it is
        bit-identical to a run on a freshly built backend."""
        reset(self, RUN_ROLES)


class InMemoryBackend(EmbeddingBackend):
    """Reference backend: every table lives in fast memory (DRAM/HBM)."""

    def __init__(self, tables: Mapping[str, EmbeddingTable], compute: ComputeSpec) -> None:
        self.tables = dict(tables)
        self.compute = compute

    def pooled_embeddings(
        self,
        requests: Mapping[str, Sequence[int]],
        start_time: float,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        pooled: Dict[str, np.ndarray] = {}
        elapsed = 0.0
        for table_name, indices in requests.items():
            if table_name not in self.tables:
                raise KeyError(f"backend has no table {table_name!r}")
            table = self.tables[table_name]
            pooled[table_name] = table.bag(indices)
            elapsed += self.compute.embedding_read_time(len(indices), table.spec.row_bytes)
        return pooled, start_time + elapsed

    def pooled_embeddings_batch(
        self,
        requests: Mapping[str, Bags],
        start_time: float,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        batch = _batch_size(requests)
        if not requests:
            return {}, float(start_time)
        tables: List[EmbeddingTable] = []
        for table_name in requests:
            if table_name not in self.tables:
                raise KeyError(f"backend has no table {table_name!r}")
            tables.append(self.tables[table_name])
        pooled, lengths = pool_bags(tables, list(requests.values()))
        # One (tables, B) matrix of read times, summed table by table in the
        # order the per-sample loop adds them.
        read_times = self.compute.embedding_read_time(
            lengths.reshape(len(tables), batch),
            np.array([[table.spec.row_bytes] for table in tables]),
        )
        elapsed = np.add.accumulate(read_times, axis=0)[-1]
        # Sample b + 1 starts when sample b completes: replay that chain of
        # float additions left to right so the completion time is bit-equal.
        cursor = np.add.accumulate(np.concatenate(([start_time], elapsed)))[-1]
        return dict(zip(requests, pooled)), float(cursor)


class InferenceEngine:
    """Executes queries against a DLRM with separate user/item backends."""

    def __init__(
        self,
        model: DLRMModel,
        compute: ComputeSpec,
        user_backend: EmbeddingBackend,
        item_backend: Optional[EmbeddingBackend] = None,
    ) -> None:
        self.model = model
        self.compute = compute
        self.user_backend = user_backend
        self.item_backend = (
            item_backend
            if item_backend is not None
            else InMemoryBackend(model.tables, compute)
        )

    def run_query(self, query: Query, start_time: float = 0.0) -> QueryResult:
        """Execute one query and return scores plus the latency breakdown."""
        item_batch = query.item_batch
        if item_batch == 0:
            raise ValueError(f"query {query.query_id} has no candidate items")

        # Bottom MLP over the dense features (once per query).
        bottom_time = self.compute.mlp_time(self.model.bottom_mlp.flops_per_sample())

        # User-side embeddings: fetched once, broadcast to every item.  These
        # are the tables the SDM backend may serve from slow memory.
        user_pooled, user_done = self.user_backend.pooled_embeddings(
            query.user_indices, start_time + bottom_time
        )
        user_time = user_done - (start_time + bottom_time)

        # Item-side embeddings: one lookup set per candidate item, served back
        # to back in one batched call, independently of the user side.
        item_pooled, item_done = self.item_backend.pooled_embeddings_batch(
            query.item_indices, start_time + bottom_time
        )
        item_time = item_done - (start_time + bottom_time)

        # Top MLP: depends on both sides, so it starts when the slower side
        # finishes (Equation 3 of the paper).
        embedding_time = max(user_time, item_time)
        top_flops = self.model.top_mlp.flops_per_sample() * item_batch
        top_time = self.compute.mlp_time(top_flops)

        scores = self.model.score_batch(query.dense_features, user_pooled, item_pooled)

        latency = bottom_time + embedding_time + top_time
        self.user_backend.on_query_complete()
        return QueryResult(
            query_id=query.query_id,
            scores=scores,
            latency=latency,
            bottom_mlp_time=bottom_time,
            user_embedding_time=user_time,
            item_embedding_time=item_time,
            top_mlp_time=top_time,
        )

    def run_queries(self, queries: Sequence[Query], start_time: float = 0.0) -> List[QueryResult]:
        """Run queries back-to-back (closed loop), advancing simulated time."""
        results: List[QueryResult] = []
        cursor = start_time
        for query in queries:
            result = self.run_query(query, cursor)
            cursor += result.latency
            results.append(result)
        return results
