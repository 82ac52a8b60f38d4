"""Inference engine with pluggable embedding backends.

The key structural property the paper exploits (section 2.2) is that user
embeddings and item embeddings execute independently, and only the top MLP
depends on both: as long as fetching the user embeddings from slow memory
finishes no later than the item-side work, SM latency is hidden from the end
to end query latency (Equation 3/4).  The engine models exactly that overlap.

Serving is split in two planes.  The timing plane carries keys, lengths and
times: a backend's :meth:`EmbeddingBackend.serve` returns only when the
lookups complete, and :meth:`InferenceEngine.run_query` only the latency
breakdown.  Values come from one pure function,
:meth:`InferenceEngine.score`, which pools the query's bags from the model
and runs the MLPs; :attr:`QueryResult.scores` calls it the first time it is
read.  No simulated metric depends on a value, so a run that never reads
scores never computes one.

Backends implement :class:`EmbeddingBackend`; the DRAM reference backend
lives here and the SDM backend in :mod:`repro.core.sdm`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import ClassVar, Dict, Mapping, Sequence

import numpy as np

from repro.dlrm.embedding import Bags, EmbeddingTable, check_requests, pool_bags
from repro.dlrm.model import DLRMModel
from repro.dlrm.pruning import PrunedEmbeddingTable
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


@dataclass
class QueryResult:
    """Latency breakdown for one query, and its scores on demand.

    ``scores`` is computed by ``engine.score(query)`` the first time it is
    read and kept from then on.
    """

    query_id: int
    latency: float
    bottom_mlp_time: float
    user_embedding_time: float
    item_embedding_time: float
    top_mlp_time: float
    query: Query = field(repr=False, compare=False)
    engine: "InferenceEngine" = field(repr=False, compare=False)

    @cached_property
    def scores(self) -> np.ndarray:
        """The ``(item_batch,)`` float32 scores of the query's candidates."""
        return self.engine.score(self.query)

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
    """Serves embedding lookups for a set of tables: the timing plane.

    ``start_time`` and the returned completion time are simulated seconds;
    implementations decide whether lookups for different tables overlap.
    A backend computes no values: :meth:`InferenceEngine.score` pools the
    model's tables, through ``pruned_tables`` for the tables a backend
    serves pruned (a pruned row pools as zero).

    The run state a backend and its parts declare (:mod:`repro.sim.state`)
    is reset by role with three verbs, each putting the as-built values
    back: counters, the simulated-time queues, or everything.
    """

    STATE_ROLES: ClassVar[Mapping[str, str]] = {}

    #: Tables this backend serves pruned, by name.
    pruned_tables: Mapping[str, PrunedEmbeddingTable] = MappingProxyType({})

    @abc.abstractmethod
    def serve(self, requests: Mapping[str, Sequence[int]], start_time: float) -> float:
        """Serve one sample's lookups, ``{table: indices}``; returns the
        completion time."""

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
        self._num_rows = {name: table.spec.num_rows for name, table in self.tables.items()}

    def serve(self, requests: Mapping[str, Sequence[int]], start_time: float) -> float:
        elapsed = 0.0
        for table_name, indices in zip(requests, check_requests(requests, self._num_rows)):
            row_bytes = self.tables[table_name].spec.row_bytes
            elapsed += self.compute.embedding_read_time(indices.size, row_bytes)
        return start_time + elapsed

    def serve_batch(self, requests: Mapping[str, Bags], start_time: float) -> float:
        """Serve B samples' lookups back to back; returns the completion time.

        ``requests`` maps each table to its bags, one per sample; sample
        ``b + 1`` starts when sample ``b`` completes, so the result is that
        of one :meth:`serve` per sample, computed as arrays.
        """
        batch = _batch_size(requests)
        if not requests:
            return float(start_time)
        check_requests({name: bags.indices for name, bags in requests.items()}, self._num_rows)
        row_bytes = [[self.tables[table_name].spec.row_bytes] for table_name in requests]
        lengths = np.concatenate([bags.lengths for bags in requests.values()])
        # One (tables, B) matrix of read times, summed table by table in the
        # order the per-sample loop adds them.
        read_times = self.compute.embedding_read_time(
            lengths.reshape(len(requests), batch), np.array(row_bytes)
        )
        elapsed = np.add.accumulate(read_times, axis=0)[-1]
        # Sample b + 1 starts when sample b completes: replay that chain of
        # float additions left to right so the completion time is bit-equal.
        cursor = np.add.accumulate(np.concatenate(([start_time], elapsed)))[-1]
        return float(cursor)


class InferenceEngine:
    """Executes queries against a DLRM: the user tables through
    ``user_backend``, the item tables from fast memory (an
    :class:`InMemoryBackend`, ``item_backend``)."""

    def __init__(
        self,
        model: DLRMModel,
        compute: ComputeSpec,
        user_backend: EmbeddingBackend,
    ) -> None:
        self.model = model
        self.compute = compute
        self.user_backend = user_backend
        self.item_backend = InMemoryBackend(model.tables, compute)

    def run_query(self, query: Query, start_time: float = 0.0) -> QueryResult:
        """Execute one query and return its latency breakdown; its scores
        are computed when read (:attr:`QueryResult.scores`)."""
        item_batch = query.item_batch
        if item_batch == 0:
            raise ValueError(f"query {query.query_id} has no candidate items")

        # Bottom MLP over the dense features (once per query).
        bottom_time = self.compute.mlp_time(self.model.bottom_mlp.flops_per_sample())

        # User-side embeddings: fetched once, broadcast to every item.  These
        # are the tables the SDM backend may serve from slow memory.
        user_done = self.user_backend.serve(query.user_indices, start_time + bottom_time)
        user_time = user_done - (start_time + bottom_time)

        # Item-side embeddings: one lookup set per candidate item, served back
        # to back in one batched call, independently of the user side.
        item_done = self.item_backend.serve_batch(query.item_indices, start_time + bottom_time)
        item_time = item_done - (start_time + bottom_time)

        # Top MLP: depends on both sides, so it starts when the slower side
        # finishes (Equation 3 of the paper).
        embedding_time = max(user_time, item_time)
        top_flops = self.model.top_mlp.flops_per_sample() * item_batch
        top_time = self.compute.mlp_time(top_flops)

        latency = bottom_time + embedding_time + top_time
        self.user_backend.on_query_complete()
        return QueryResult(
            query_id=query.query_id,
            latency=latency,
            bottom_mlp_time=bottom_time,
            user_embedding_time=user_time,
            item_embedding_time=item_time,
            top_mlp_time=top_time,
            query=query,
            engine=self,
        )

    def score(self, query: Query) -> np.ndarray:
        """The query's ``(item_batch,)`` float32 scores: the values plane.

        A pure function of the model, the user backend's pruned tables and
        the query.  Each user table pools its indices with ``bag`` — through
        the backend's pruned table where it has one, so a pruned row pools
        as zero — and the item tables pool every candidate's bags with
        :func:`~repro.dlrm.embedding.pool_bags`.  Every value transform a
        backend applies beyond pruning (de-pruning, dequantise-at-load)
        leaves the pooled values unchanged.
        """
        item_tables = [self.model.table(table_name) for table_name in query.item_indices]
        item_pooled, _ = pool_bags(item_tables, list(query.item_indices.values()))
        return self.model.score_batch(
            query.dense_features,
            self.user_pooled(query.user_indices),
            dict(zip(query.item_indices, item_pooled)),
        )

    def user_pooled(self, user_indices: Mapping[str, Sequence[int]]) -> Dict[str, np.ndarray]:
        """The pooled vector of every user table: ``bag`` over its indices,
        through the user backend's pruned table where it has one."""
        pruned = self.user_backend.pruned_tables
        return {
            table_name: (pruned.get(table_name) or self.model.table(table_name)).bag(indices)
            for table_name, indices in user_indices.items()
        }
