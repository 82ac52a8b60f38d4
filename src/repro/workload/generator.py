"""Query stream generation for a DLRM model.

Generates :class:`~repro.dlrm.inference.Query` objects whose sparse index
lists follow per-table Zipf distributions, with a configurable probability of
repeating a previously issued index sequence (which is what gives the pooled
embedding cache of section 4.4 its ~5% full-sequence hit rate) and a Zipf
user population (which is what user-sticky routing exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dlrm.embedding import Bags, EmbeddingTableSpec
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
    while ``generate(n)`` stays exactly ``n`` calls of ``generate(1)``:
    NumPy generators produce the same value sequence whatever the request
    chunking.

    Tables never share state (each has its own Zipf generator, sequence pool
    and user memory), so :meth:`generate` works table by table: one
    sequential pass over the table's slots resolves every reuse / repeat /
    pool decision to a reference, one :meth:`ZipfGenerator.sample_unique_bags`
    call draws all the fresh sequences, and one gather lays the chunk's
    sequences out as the table's :class:`~repro.dlrm.embedding.Bags`.
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
        # Past sequences per table, eligible for verbatim repetition.
        self._sequence_pools: Dict[str, List[np.ndarray]] = {
            spec.name: [] for spec in model.table_specs
        }
        # The last sequence each user issued per user table, so a returning
        # user re-issues (mostly) the same categorical features.
        self._user_memory: Dict[str, Dict[int, np.ndarray]] = {
            spec.name: {} for spec in model.user_table_specs
        }
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

    def _table_bags(
        self,
        spec: EmbeddingTableSpec,
        counts: np.ndarray,
        repeat_draws: np.ndarray,
        pool_draws: np.ndarray,
        users: Optional[Sequence[int]] = None,
        reuse: Optional[np.ndarray] = None,
    ) -> Bags:
        """One table's sequence slots for a chunk, in slot order.

        ``counts``, ``repeat_draws`` and ``pool_draws`` (pick, replace) hold
        one entry per slot; user tables also pass each slot's user and
        whether its reuse draw fired.  The pass keeps the scalar decision
        order: a returning user's remembered sequence, else a repeat from
        the pool, else a fresh sequence that enters the pool.  A reference
        ``r >= 0`` names the ``r``-th fresh sequence, ``r < 0`` the
        pre-existing array ``earlier[-r - 1]``.
        """
        pool = self._sequence_pools[spec.name]
        earlier: List[np.ndarray] = list(pool)
        pool_refs = [-position - 1 for position in range(len(pool))]
        memory = self._user_memory[spec.name] if users is not None else {}
        remembered: Dict[int, int] = {}  # user -> reference, this chunk
        fresh_slots: List[int] = []
        refs: List[int] = []
        repeat_probability = self.config.sequence_repeat_probability
        pool_size = self.config.sequence_pool_size
        picks = pool_draws[:, 0].tolist()
        replaces = pool_draws[:, 1].tolist()
        reuse_flags = reuse.tolist() if reuse is not None else None
        for slot, repeat in enumerate(repeat_draws.tolist()):
            if users is not None:
                user = users[slot]
                if reuse_flags[slot]:
                    ref = remembered.get(user)
                    if ref is None and user in memory:
                        earlier.append(memory[user])
                        ref = remembered[user] = -len(earlier)
                    if ref is not None:
                        refs.append(ref)
                        continue
            size = len(pool_refs)
            if size and repeat < repeat_probability:
                ref = pool_refs[min(int(picks[slot] * size), size - 1)]
            else:
                ref = len(fresh_slots)
                fresh_slots.append(slot)
                if size >= pool_size:
                    pool_refs[min(int(replaces[slot] * size), size - 1)] = ref
                else:
                    pool_refs.append(ref)
            if users is not None:
                remembered[user] = ref
            refs.append(ref)

        fresh = self._table_generators[spec.name].sample_unique_bags(counts[fresh_slots])
        # One gather from [fresh sequences, earlier arrays] into slot order.
        source = np.concatenate([fresh.indices, *earlier]) if earlier else fresh.indices
        lengths = np.concatenate(
            [fresh.lengths, np.array([array.size for array in earlier], dtype=np.int64)]
        )
        starts = np.cumsum(lengths) - lengths
        references = np.array(refs, dtype=np.int64)
        position = np.where(references >= 0, references, len(fresh_slots) - 1 - references)
        slot_lengths = lengths[position]
        offsets = np.zeros(len(refs) + 1, dtype=np.int64)
        np.cumsum(slot_lengths, out=offsets[1:])
        gather = np.repeat(starts[position] - offsets[:-1], slot_lengths) + np.arange(offsets[-1])
        bags = Bags(source[gather], offsets, spec.name)

        # Pools and memories keep read-only views into the chunk's bags.
        def resolve(ref: int) -> np.ndarray:
            return bags[fresh_slots[ref]] if ref >= 0 else earlier[-ref - 1]

        pool[:] = [resolve(ref) for ref in pool_refs]
        for user, ref in remembered.items():
            memory[user] = resolve(ref)
        return bags

    # -------------------------------------------------------------------- API
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
        reused = reuse_draws < self.config.user_reuse_probability

        # Each user table has one slot per query; each item table ``batch``
        # consecutive slots per query, query-major like the scalar order.
        user_columns: Dict[str, Tuple[np.ndarray, List[int]]] = {}
        for slot, spec in enumerate(user_specs):
            bags = self._table_bags(
                spec, lookup_counts[:, slot], repeat_draws[:, slot], pool_draws[:, slot],
                users=user_ids, reuse=reused[:, slot],
            )
            user_columns[spec.name] = (bags.indices, bags.offsets.tolist())
        item_columns: Dict[str, Bags] = {}
        for table_at, spec in enumerate(item_specs):
            columns = slice(num_user + table_at * batch, num_user + (table_at + 1) * batch)
            item_columns[spec.name] = self._table_bags(
                spec,
                lookup_counts[:, columns].ravel(),
                repeat_draws[:, columns].ravel(),
                pool_draws[:, columns].reshape(-1, 2),
            )

        queries: List[Query] = []
        for position, user_id in enumerate(user_ids):
            queries.append(
                Query(
                    query_id=self._next_query_id,
                    user_id=user_id,
                    dense_features=dense_draws[position],
                    user_indices={
                        name: indices[offsets[position] : offsets[position + 1]]
                        for name, (indices, offsets) in user_columns.items()
                    },
                    item_indices={
                        name: bags[position * batch : (position + 1) * batch]
                        for name, bags in item_columns.items()
                    },
                )
            )
            self._next_query_id += 1
        return queries

    def access_trace(self, queries: Sequence[Query], table_name: str) -> List[int]:
        """Flatten the row accesses a query stream makes to one table."""
        parts: List[np.ndarray] = []
        for query in queries:
            if table_name in query.user_indices:
                parts.append(query.user_indices[table_name])
            if table_name in query.item_indices:
                parts.append(query.item_indices[table_name].indices)
        return np.concatenate(parts).tolist() if parts else []
