"""Query stream generation for a DLRM model.

Generates :class:`~repro.dlrm.inference.Query` objects whose sparse index
lists follow per-table Zipf distributions, with a configurable probability of
repeating a previously issued index sequence (which is what gives the pooled
embedding cache of section 4.4 its ~5% full-sequence hit rate) and a Zipf
user population (which is what user-sticky routing exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dlrm.embedding import EmbeddingTableSpec
from repro.dlrm.inference import Query
from repro.dlrm.model import DLRMModel
from repro.sim.rng import make_rng
from repro.workload.zipf import ZipfGenerator


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic query stream.

    Attributes
    ----------
    item_batch:
        Number of candidate items ranked per query (B_I).  User batch is
        always 1 for inference, per the paper.
    num_users:
        Size of the user population; user ids are drawn Zipf-distributed.
    user_zipf_alpha:
        Skew of the user popularity distribution.
    sequence_repeat_probability:
        Probability that a user-table index sequence repeats a previously
        generated sequence verbatim (drives pooled-embedding-cache hits).
    sequence_pool_size:
        How many past sequences per table are eligible for repetition.
    user_reuse_probability:
        Probability that a returning user re-issues the same user-table index
        sequence it used before (a user's categorical features are mostly
        stable between queries).  This is what makes user-sticky routing
        raise per-host temporal locality (Figure 4c).
    pooling_factor_jitter:
        Relative jitter applied to each table's average pooling factor.
    """

    item_batch: int = 10
    num_users: int = 10_000
    user_zipf_alpha: float = 1.1
    sequence_repeat_probability: float = 0.05
    sequence_pool_size: int = 256
    user_reuse_probability: float = 0.8
    pooling_factor_jitter: float = 0.3

    def __post_init__(self) -> None:
        if self.item_batch <= 0:
            raise ValueError(f"item_batch must be positive: {self.item_batch}")
        if self.num_users <= 0:
            raise ValueError(f"num_users must be positive: {self.num_users}")
        if not 0.0 <= self.sequence_repeat_probability <= 1.0:
            raise ValueError(
                "sequence_repeat_probability must be a probability: "
                f"{self.sequence_repeat_probability}"
            )
        if not 0.0 <= self.user_reuse_probability <= 1.0:
            raise ValueError(
                f"user_reuse_probability must be a probability: {self.user_reuse_probability}"
            )
        if self.sequence_pool_size <= 0:
            raise ValueError(f"sequence_pool_size must be positive: {self.sequence_pool_size}")
        if not 0.0 <= self.pooling_factor_jitter < 1.0:
            raise ValueError(
                f"pooling_factor_jitter must be in [0, 1): {self.pooling_factor_jitter}"
            )


ARRIVAL_PROCESSES = ("poisson", "constant", "trace")


def generate_arrival_times(
    num_queries: int,
    process: str = "poisson",
    offered_qps: Optional[float] = None,
    seed: int = 0,
    trace: Optional[Sequence[float]] = None,
    start_time: float = 0.0,
) -> np.ndarray:
    """Absolute arrival timestamps for an open-loop query stream.

    ``poisson`` draws exponential inter-arrival gaps at rate ``offered_qps``
    (seeded via :func:`repro.sim.rng.make_rng`, so streams are reproducible),
    ``constant`` spaces arrivals exactly ``1/offered_qps`` apart, and
    ``trace`` replays the first ``num_queries`` timestamps of a recorded
    ``trace`` (which must be non-negative and non-decreasing).  Returns a
    float64 ndarray, so million-query schedules stay one contiguous buffer.
    """
    if num_queries <= 0:
        raise ValueError(f"num_queries must be positive: {num_queries}")
    if start_time < 0:
        raise ValueError(f"start_time must be non-negative: {start_time}")
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; known: {list(ARRIVAL_PROCESSES)}"
        )
    if process == "trace":
        if trace is None or len(trace) < num_queries:
            raise ValueError(
                f"trace arrivals need at least num_queries ({num_queries}) "
                f"timestamps, got {0 if trace is None else len(trace)}"
            )
        times = start_time + np.asarray(trace[:num_queries], dtype=np.float64)
        if bool((times < 0).any()):
            raise ValueError(
                f"trace timestamps must be non-negative: {float(times.min())}"
            )
        if bool((np.diff(times) < 0).any()):
            raise ValueError("trace timestamps must be non-decreasing")
        return times
    if offered_qps is None or offered_qps <= 0:
        raise ValueError(
            f"{process} arrivals need a positive offered_qps: {offered_qps}"
        )
    if process == "constant":
        return start_time + np.arange(num_queries, dtype=np.float64) / offered_qps
    rng = make_rng(seed, "arrivals", process)
    gaps = rng.exponential(1.0 / offered_qps, size=num_queries)
    return start_time + np.cumsum(gaps) - gaps[0]


class QueryGenerator:
    """Generates reproducible query streams for a model.

    Randomness is organised as one named :func:`~repro.sim.rng.make_rng`
    stream per draw *purpose* (reuse decisions, sequence-repeat decisions,
    pooling jitter, pool positions, dense features), and every query consumes
    a fixed number of draws from each — decisions read pre-drawn uniforms
    instead of branching on whether to draw.  That layout makes
    :meth:`generate` one batched NumPy draw per purpose for the whole stream,
    while ``generate(n)`` stays exactly ``[generate_query() for _ in
    range(n)]``: NumPy generators produce the same value sequence whatever
    the request chunking, so only the loop overhead changes.
    """

    def __init__(
        self,
        model: DLRMModel,
        config: Optional[WorkloadConfig] = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.config = config if config is not None else WorkloadConfig()
        self.seed = seed
        name = model.name
        self._reuse_rng = make_rng(seed, "query-generator", name, "user-reuse")
        self._repeat_rng = make_rng(seed, "query-generator", name, "sequence-repeat")
        self._jitter_rng = make_rng(seed, "query-generator", name, "pooling-jitter")
        self._pool_rng = make_rng(seed, "query-generator", name, "pool-position")
        self._dense_rng = make_rng(seed, "query-generator", name, "dense-features")
        self._user_ids = ZipfGenerator(
            self.config.num_users, self.config.user_zipf_alpha, seed=seed
        )
        self._table_generators: Dict[str, ZipfGenerator] = {}
        for spec in model.table_specs:
            self._table_generators[spec.name] = ZipfGenerator(
                spec.num_rows, spec.zipf_alpha, seed=seed
            )
        self._sequence_pools: Dict[str, List[List[int]]] = {
            spec.name: [] for spec in model.table_specs
        }
        # Remembered user-table index sequences per user id, so a returning
        # user re-issues (mostly) the same categorical features.
        self._user_memory: Dict[int, Dict[str, List[int]]] = {}
        self._next_query_id = 0

    # ---------------------------------------------------------------- helpers
    def _pooling_counts(
        self, specs: Sequence[EmbeddingTableSpec], jitter_draws: np.ndarray
    ) -> np.ndarray:
        """Rows to look up in each sequence slot: the slot table's average
        pooling factor, jittered, rounded half-to-even, within [1, num_rows].

        ``jitter_draws`` is ``(queries, slots)`` with ``specs[s]`` the table
        of slot ``s``.
        """
        average = np.array([spec.avg_pooling_factor for spec in specs], dtype=np.float64)
        num_rows = np.array([spec.num_rows for spec in specs], dtype=np.int64)
        factor = average * (1.0 + self.config.pooling_factor_jitter * jitter_draws)
        return np.minimum(np.maximum(np.rint(factor).astype(np.int64), 1), num_rows)

    def _indices_for_table(
        self,
        spec: EmbeddingTableSpec,
        count: int,
        repeat_draw: float,
        pick_draw: float,
        replace_draw: float,
    ) -> List[int]:
        """One table-sequence slot, driven entirely by pre-drawn uniforms."""
        pool = self._sequence_pools[spec.name]
        if pool and repeat_draw < self.config.sequence_repeat_probability:
            return list(pool[min(int(pick_draw * len(pool)), len(pool) - 1)])
        indices = self._table_generators[spec.name].sample_ids(count, unique=True)
        if len(pool) >= self.config.sequence_pool_size:
            pool[min(int(replace_draw * len(pool)), len(pool) - 1)] = indices
        else:
            pool.append(indices)
        return list(indices)

    # -------------------------------------------------------------------- API
    def generate_query(self, item_batch: Optional[int] = None) -> Query:
        """Generate the next query in the stream."""
        return self.generate(1, item_batch)[0]

    def generate(self, num_queries: int, item_batch: Optional[int] = None) -> List[Query]:
        """Generate a list of queries with one batched RNG draw per purpose."""
        if num_queries <= 0:
            raise ValueError(f"num_queries must be positive: {num_queries}")
        batch = item_batch if item_batch is not None else self.config.item_batch
        if batch <= 0:
            raise ValueError(f"item_batch must be positive: {batch}")
        user_specs = self.model.user_table_specs
        item_specs = self.model.item_table_specs
        num_user = len(user_specs)
        # One sequence slot per user table plus one per (item table, batch
        # position); every slot consumes its repeat/jitter/pool draws whether
        # or not the decision path uses them, so the counts are static.
        slots = num_user + len(item_specs) * batch
        count = num_queries
        user_ids = self._user_ids.sample_ids(count)
        reuse_draws = self._reuse_rng.random((count, num_user))
        repeat_draws = self._repeat_rng.random((count, slots))
        lookup_counts = self._pooling_counts(
            user_specs + [spec for spec in item_specs for _ in range(batch)],
            self._jitter_rng.uniform(-1.0, 1.0, (count, slots)),
        )
        pool_draws = self._pool_rng.random((count, slots, 2))
        dense_draws = self._dense_rng.normal(
            0.0, 1.0, (count, self.model.dense_dim)
        ).astype(np.float32)
        reuse_probability = self.config.user_reuse_probability
        item_slots = [
            (spec, range(num_user + table_at * batch, num_user + (table_at + 1) * batch))
            for table_at, spec in enumerate(item_specs)
        ]

        queries: List[Query] = []
        for position, user_id in enumerate(user_ids):
            # One query's draws as plain floats: same values, no per-slot
            # ndarray scalar indexing.
            reuse = reuse_draws[position].tolist()
            repeat = repeat_draws[position].tolist()
            lookups = lookup_counts[position].tolist()
            pool = pool_draws[position].tolist()
            remembered = self._user_memory.setdefault(user_id, {})
            user_indices: Dict[str, List[int]] = {}
            for slot, spec in enumerate(user_specs):
                if spec.name in remembered and reuse[slot] < reuse_probability:
                    user_indices[spec.name] = list(remembered[spec.name])
                else:
                    indices = self._indices_for_table(
                        spec, lookups[slot], repeat[slot], *pool[slot]
                    )
                    remembered[spec.name] = list(indices)
                    user_indices[spec.name] = indices
            item_indices: Dict[str, List[List[int]]] = {
                spec.name: [
                    self._indices_for_table(spec, lookups[slot], repeat[slot], *pool[slot])
                    for slot in table_slots
                ]
                for spec, table_slots in item_slots
            }
            queries.append(
                Query(
                    query_id=self._next_query_id,
                    user_id=user_id,
                    dense_features=dense_draws[position],
                    user_indices=user_indices,
                    item_indices=item_indices,
                )
            )
            self._next_query_id += 1
        return queries

    def access_trace(self, queries: Sequence[Query], table_name: str) -> List[int]:
        """Flatten the row accesses a query stream makes to one table."""
        trace: List[int] = []
        for query in queries:
            if table_name in query.user_indices:
                trace.extend(query.user_indices[table_name])
            if table_name in query.item_indices:
                for per_item in query.item_indices[table_name]:
                    trace.extend(per_item)
        return trace
