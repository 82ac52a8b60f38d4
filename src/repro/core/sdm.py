"""The Software Defined Memory embedding backend.

:class:`SoftwareDefinedMemory` places the model's user embedding tables
across an ordered hierarchy of memory tiers (:mod:`repro.hierarchy`) and
serves row lookups through the tier chain: probe the row caches of faster
tiers, miss down to the row's home tier, promote on a configurable policy.
The paper's host — one fast-memory tier with the unified row cache in front
of one SM device technology — is the two-tier hierarchy.  Requests can
optionally short-circuit through the pooled embedding cache
(Algorithm 1), and the fast-memory and CPU costs of every choice are
accounted.  It implements :class:`~repro.dlrm.inference.EmbeddingBackend`,
so an :class:`~repro.dlrm.inference.InferenceEngine` can serve queries
through it and the end-to-end latency reflects whether the slow-tier fetch
is hidden behind the item-side work (Equation 3 of the paper).

Serving moves keys, lengths and times, never row bytes: the value
transforms SDM applies — pruning (a pruned row pools as zero), de-pruning
and dequantise-at-load — change no pooled value, so they act here only
through the stored row count and row size.  Values come from
:meth:`~repro.dlrm.inference.InferenceEngine.score`, which pools a pruned
table through :attr:`pruned_tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cache.unified import UnifiedRowCache
from repro.core.config import (
    DEFAULT_POOLED_CACHE_BYTES,
    DEFAULT_POOLED_LEN_THRESHOLD,
    DEFAULT_ROW_CACHE_BYTES,
    AccessPathKind,
    SDMConfig,
)
from repro.core.dequantization import dequantized_row_bytes
from repro.core.pooled_cache import PooledEmbeddingCache
from repro.dlrm.embedding import EmbeddingTableSpec, check_requests
from repro.dlrm.inference import ComputeSpec, EmbeddingBackend
from repro.dlrm.model import DLRMModel
from repro.dlrm.pruning import PRUNED, PrunedEmbeddingTable
from repro.hierarchy.chain import FetchPlan, TierChain
from repro.hierarchy.placement import (
    TieredPlacement,
    compute_tiered_placement,
    whole_table_segments,
)
from repro.hierarchy.tier import DeviceTier, MemoryTier, build_tiers
from repro.obs.metrics import stats_counters
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.state import COUNTER, OBSERVER, record
from repro.storage.device import DeviceStats

#: Host CPU time per FM-resident mapping-tensor lookup (pruned tables).
MAPPING_LOOKUP_SECONDS = 3.0e-8
#: Host CPU time per row-cache probe added to the query's latency.
CACHE_PROBE_SECONDS = 2.0e-7
#: Host CPU time for a pooled-embedding-cache probe (hash + lookup).
POOLED_PROBE_SECONDS = 5.0e-7
#: Bytes per entry of the rank mapping tensor kept in FM for row-split tables.
RANK_INDEX_BYTES = 4
#: Bytes per element of a pooled (float32) vector.
FLOAT32_BYTES = 4


@dataclass
class _SMTable:
    """Serving state of one table with rows homed below tier 0."""

    spec: EmbeddingTableSpec
    stored_rows: int
    row_bytes: int
    cache_enabled: bool
    mapping: Optional[np.ndarray] = None
    mapping_fm_bytes: int = 0


@dataclass(slots=True)
class _TableLookup:
    """One table of a query, planned and waiting for its run to be served."""

    table_name: str
    indices: np.ndarray
    #: ``None`` for a table served straight from fast memory.
    state: Optional[_SMTable] = None
    pooled_probed: bool = False
    pooled_hit: bool = False
    plan: Optional[FetchPlan] = None

    @property
    def fill_free(self) -> bool:
        """Serving the table leaves every cache as the next table's plan
        found it: a pooled-cache miss is put into that cache at the end."""
        return self.plan is None or (self.plan.fill_free and not self.pooled_probed)


@dataclass
class SDMStats:
    """Cumulative serving statistics of one SDM instance."""

    queries: int = 0
    sm_table_requests: int = 0
    sm_row_lookups: int = 0
    sm_ios: int = 0
    fm_direct_lookups: int = 0
    pruned_rows_skipped: int = 0
    pooled_cache_hits: int = 0
    pooled_cache_lookups: int = 0
    user_embedding_seconds: float = 0.0

    @property
    def ios_per_query(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.sm_ios / self.queries


class SoftwareDefinedMemory(EmbeddingBackend):
    """Tiered-memory embedding backend (the paper's SDM stack)."""

    STATE_ROLES: ClassVar[Mapping[str, str]] = {"stats": COUNTER, "recorder": OBSERVER}

    def __init__(
        self,
        model: DLRMModel,
        config: SDMConfig,
        compute: Optional[ComputeSpec] = None,
        placement: Optional[TieredPlacement] = None,
        pruned_tables: Optional[Mapping[str, PrunedEmbeddingTable]] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.compute = compute if compute is not None else ComputeSpec()
        self.pruned_tables = dict(pruned_tables) if pruned_tables else {}
        unknown_pruned = set(self.pruned_tables) - set(model.tables)
        if unknown_pruned:
            raise ValueError(
                f"pruned tables not present in the model: {sorted(unknown_pruned)}"
            )
        for table_name, pruned in self.pruned_tables.items():
            # Its mapping tensor is what a request addresses.
            rows = model.table(table_name).spec.num_rows
            if pruned.original_spec.num_rows != rows:
                raise ValueError(
                    f"table {table_name!r}: the pruned table maps "
                    f"{pruned.original_spec.num_rows} rows but the model table has {rows}"
                )

        self._init_placement(placement)
        # The bound of every table the backend serves: its model row count.
        self._num_rows = {
            name: table.spec.num_rows
            for name, table in model.tables.items()
            if name in self.placement.decisions
        }
        self._build_tiers()

        self.pooled_cache: Optional[PooledEmbeddingCache] = None
        if config.pooled_cache_enabled:
            capacity = config.pooled_cache_capacity_bytes
            threshold = config.pooled_len_threshold
            self.pooled_cache = PooledEmbeddingCache(
                DEFAULT_POOLED_CACHE_BYTES if capacity is None else capacity,
                len_threshold=DEFAULT_POOLED_LEN_THRESHOLD if threshold is None else threshold,
            )

        self.stats = SDMStats()
        self._sm_tables: Dict[str, _SMTable] = {}
        self._load_sm_tables()

        self.chain = TierChain(
            self.tiers,
            self.placement,
            promotion=config.promotion,
            cache_probe_seconds=CACHE_PROBE_SECONDS,
            fm_lookup_overhead=self.compute.per_lookup_overhead,
            fm_bandwidth=self.compute.memory_bandwidth,
        )
        # Observability: shared no-op unless a session attaches a live
        # recorder via set_trace_recorder().  Never consulted for timing.
        self.recorder: TraceRecorder = NULL_RECORDER
        # As built, the table load included: what the reset verbs put back.
        record(self)

    # ------------------------------------------------------------------ setup
    def _init_placement(self, placement: Optional[TieredPlacement]) -> None:
        """Copy a supplied placement, else compute one for the config's tiers."""
        if placement is not None:
            if not isinstance(placement, TieredPlacement):
                raise TypeError(
                    f"placement must be a TieredPlacement or None, got "
                    f"{type(placement).__name__}"
                )
            if placement.num_tiers > len(self.config.tiers):
                raise ValueError(
                    f"placement references {placement.num_tiers} tiers but the "
                    f"config has {len(self.config.tiers)}"
                )
            # Work on a copy: loading re-anchors whole-table segments on the
            # stored row count, which must not mutate the caller's object.
            self.placement = placement.copy()
            return
        self.placement = compute_tiered_placement(
            self.model.table_specs,
            self.config.tiers,
            pinned_fast_tables=self.config.pinned_fm_tables,
            cache_disable_alpha_threshold=self.config.cache_disable_alpha_threshold,
            granularity="rows" if self.config.split_rows else "table",
        )

    def _build_tiers(self) -> None:
        config = self.config
        fast_spec = config.tiers[0]
        if fast_spec.cache_bytes is not None:
            cache_bytes = fast_spec.cache_bytes
        elif config.row_cache_capacity_bytes is not None:
            cache_bytes = config.row_cache_capacity_bytes
        else:
            cache_bytes = DEFAULT_ROW_CACHE_BYTES
        if cache_bytes <= 0:
            raise ValueError(
                "tier 0 needs a positive row-cache budget; omit 'cache' to use "
                "row_cache_capacity_bytes"
            )
        self.row_cache = UnifiedRowCache(cache_bytes)
        self.tiers: List[MemoryTier] = build_tiers(
            config.tiers,
            io_config=config.io,
            fast_cache=self.row_cache,
            use_mmap=config.access_path is AccessPathKind.MMAP,
            seed=config.seed,
        )
        # The flat device list across every tier.
        self.devices = [device for tier in self.device_tiers for device in tier.devices]

    @property
    def device_tiers(self) -> List[DeviceTier]:
        return [tier for tier in self.tiers if isinstance(tier, DeviceTier)]

    def _sm_table_for(self, table_name: str) -> _SMTable:
        """What is stored below tier 0 for one table: how many rows, how
        long each, and the FM mapping tensor of a pruned table."""
        cache_enabled = self.placement.for_table(table_name).cache_enabled
        spec = self.model.table(table_name).spec
        pruned = self.pruned_tables.get(table_name)
        if pruned is not None and not self.config.deprune_at_load:
            return _SMTable(
                spec=spec,
                stored_rows=pruned.table.spec.num_rows,
                row_bytes=pruned.table.spec.row_bytes,
                cache_enabled=cache_enabled,
                mapping=pruned.mapping,
                mapping_fm_bytes=pruned.mapping_tensor_bytes,
            )
        # Algorithm 2 stores a de-pruned table whole, its pruned rows zero
        # and quantised like the rest; dequantise-at-load stores the rows of
        # an unpruned table as float32.
        row_bytes = spec.row_bytes
        if pruned is None and self.config.dequantize_at_load:
            row_bytes = dequantized_row_bytes(spec.dim)
        return _SMTable(
            spec=spec, stored_rows=spec.num_rows, row_bytes=row_bytes, cache_enabled=cache_enabled
        )

    def _load_sm_tables(self) -> None:
        """Lay out every device-homed table segment on its tier."""
        for table_name in self.placement.storage_tables():
            if table_name not in self.model.tables:
                raise KeyError(
                    f"placement references table {table_name!r} that the model lacks"
                )
            decision = self.placement.for_table(table_name)
            state = self._sm_table_for(table_name)
            if decision.is_split or decision.rank_order is not None:
                if table_name in self.pruned_tables or self.config.dequantize_at_load:
                    raise ValueError(
                        f"table {table_name!r}: row-split placement cannot be "
                        f"combined with pruned or dequantize-at-load tables"
                    )
                if decision.rank_order is not None:
                    # Hotness-ranked split: rows are stored rank-ordered, so a
                    # mapping tensor (row id -> stored rank) lives in FM —
                    # exactly like the pruning mapping, and with the same
                    # per-lookup cost.
                    mapping = np.empty(state.stored_rows, dtype=np.int64)
                    mapping[decision.rank_order] = np.arange(
                        state.stored_rows, dtype=np.int64
                    )
                    state.mapping = mapping
                    state.mapping_fm_bytes = state.stored_rows * RANK_INDEX_BYTES
            self._sm_tables[table_name] = state
            segments = whole_table_segments(decision, state.stored_rows)
            decision.segments = segments
            whole = len(segments) == 1
            for segment in segments:
                if segment.tier == 0:
                    continue
                tier = self.tiers[segment.tier]
                assert isinstance(tier, DeviceTier)
                tier.add_segment(
                    table_name, segment.start, segment.end, state.row_bytes, whole_table=whole
                )

    # ------------------------------------------------------------ accounting
    def fm_footprint_bytes(self) -> int:
        """Fast memory consumed: tier-0 data, mapping tensors, caches."""
        specs = {t.spec.name: t.spec for t in self.model.tables.values()}
        direct = self.placement.tier_bytes(specs, 0)
        mappings = sum(state.mapping_fm_bytes for state in self._sm_tables.values())
        pooled = self.pooled_cache.capacity_bytes if self.pooled_cache else 0
        access_path_fm = sum(tier.fm_footprint_bytes() for tier in self.device_tiers)
        return direct + mappings + self.row_cache.capacity_bytes + pooled + access_path_fm

    def sm_footprint_bytes(self) -> int:
        """Bytes of table data stored on the device tiers."""
        return sum(tier.allocated_bytes() for tier in self.device_tiers)

    def device_stats(self) -> DeviceStats:
        merged = DeviceStats()
        for device in self.devices:
            merged.merge(device.stats)
        return merged

    @property
    def row_cache_hit_rate(self) -> float:
        return self.row_cache.stats.hit_rate

    @property
    def pooled_cache_hit_rate(self) -> float:
        if self.pooled_cache is None:
            return 0.0
        return self.pooled_cache.stats.hit_rate

    def tier_summaries(self) -> List[Dict[str, Any]]:
        """Per-tier serving summary: geometry, hit rates, rows/bytes served."""
        specs = {t.spec.name: t.spec for t in self.model.tables.values()}
        summaries: List[Dict[str, Any]] = []
        for index, tier in enumerate(self.tiers):
            data_bytes = (
                self.placement.tier_bytes(specs, 0)
                if index == 0
                else tier.allocated_bytes()
            )
            summaries.append(
                {
                    "tier": index,
                    "name": tier.spec.name,
                    "technology": tier.spec.technology.value,
                    "capacity_bytes": tier.spec.capacity_bytes,
                    "data_bytes": data_bytes,
                    "cache_capacity_bytes": (
                        tier.cache.capacity_bytes if tier.cache is not None else 0
                    ),
                    "cache_hit_rate": (
                        tier.cache.stats.hit_rate if tier.cache is not None else None
                    ),
                    "rows_served": tier.stats.rows_served,
                    "bytes_served": tier.stats.bytes_served,
                    "ios": tier.stats.ios,
                    "tables": len(self.placement.tables_on(index)),
                }
            )
        return summaries

    def set_trace_recorder(self, recorder: TraceRecorder) -> None:
        """Attach a span recorder to the backend and its tier chain."""
        self.recorder = recorder
        self.chain.recorder = recorder

    def telemetry_counters(self) -> Dict[str, float]:
        """Flat cumulative counters for interval sampling (repro.obs).

        Every value is monotone over a run, so per-window deltas telescope
        back to the aggregate statistics.
        """
        counters: Dict[str, float] = {
            "sdm.queries": self.stats.queries,
            "sdm.sm_ios": self.stats.sm_ios,
            "sdm.sm_row_lookups": self.stats.sm_row_lookups,
            "sdm.fm_direct_lookups": self.stats.fm_direct_lookups,
            "sdm.pooled_cache_hits": self.stats.pooled_cache_hits,
            "sdm.pooled_cache_lookups": self.stats.pooled_cache_lookups,
        }
        for index, tier in enumerate(self.tiers):
            prefix = f"tier{index}"
            for key, value in stats_counters(tier.stats).items():
                counters[f"{prefix}.{key}"] = value
            if tier.cache is not None:
                for key, value in stats_counters(tier.cache.stats).items():
                    counters[f"{prefix}.cache.{key}"] = value
            if isinstance(tier, DeviceTier):
                for key, value in stats_counters(tier.io_engine.stats).items():
                    counters[f"{prefix}.io.{key}"] = value
        return counters

    # --------------------------------------------------------------- serving
    def serve(self, requests: Mapping[str, Sequence[int]], start_time: float) -> float:
        """Serve a query's tables in request order, walking the row caches
        once per run of tables; returns the completion time.

        A table is planned (:meth:`_plan_lookup`) while the tables ahead of
        it in its run are fill-free, so nothing its plan reads can change
        before it is served.  A table that will fill a row cache or put
        into the pooled cache closes the run; one that promotes mid-walk is
        probed alone.  A run is probed with one
        :meth:`~repro.hierarchy.chain.TierChain.probe_run`, then its tables
        complete one by one, each with the timing, IO and spans it would
        have on its own.

        The whole query is checked first (:func:`check_requests`), so a
        rejected query moves no counter, cache, device or span.
        """
        if not requests:
            return start_time
        run: List[_TableLookup] = []
        # The latest table completion: tables served one after another
        # (no inter-op parallelism) each start from it.
        completion = start_time
        for table_name, indices in zip(requests, check_requests(requests, self._num_rows)):
            lookup = self._plan_lookup(table_name, indices)
            if run and lookup.plan is not None and lookup.plan.promotes:
                completion = self._serve_run(run, start_time, completion)
                run = []
            run.append(lookup)
            if not lookup.fill_free:
                completion = self._serve_run(run, start_time, completion)
                run = []
        if run:
            completion = self._serve_run(run, start_time, completion)
        self.stats.user_embedding_seconds += completion - start_time
        return completion

    def on_query_complete(self) -> None:
        self.stats.queries += 1

    # ------------------------------------------------------------- internals
    def _plan_lookup(self, table_name: str, indices: np.ndarray) -> _TableLookup:
        """Settle what serving one table needs before the tables ahead of it
        complete: its pooled-cache probe (no table ahead of it in a run
        writes that cache), its mapping-tensor gather, the chain's plan of
        its stored rows and its counters.  ``indices`` come checked from
        :meth:`serve`, in range of the model table, which is as long as the
        table's mapping tensor or, without one, its stored rows."""
        state = self._sm_tables.get(table_name)
        if state is None:
            return _TableLookup(table_name, indices)
        lookup = _TableLookup(table_name, indices, state)
        # Algorithm 1: try the pooled embedding cache first.
        pooled = self.pooled_cache
        lookup.pooled_probed = pooled is not None and pooled.eligible(indices)
        if lookup.pooled_probed:
            self.stats.pooled_cache_lookups += 1
            lookup.pooled_hit = pooled.probe_batch(table_name, indices)
            if lookup.pooled_hit:
                self.stats.pooled_cache_hits += 1
        if not lookup.pooled_hit:
            # Resolve the stored index of each requested (unpruned-space)
            # index with one batched mapping-tensor gather; a table without
            # a mapping tensor stores every row under its own index.
            stored = indices
            if state.mapping is not None:
                stored = state.mapping[indices]
                stored = stored[stored != PRUNED]
                self.stats.pruned_rows_skipped += len(indices) - int(stored.size)
            lookup.plan = self.chain.plan(
                table_name, stored, row_len=state.row_bytes, cache_enabled=state.cache_enabled
            )
        self.stats.sm_table_requests += 1
        self.stats.sm_row_lookups += len(indices)
        return lookup

    def _serve_run(self, run: List[_TableLookup], start_time: float, completion: float) -> float:
        """Probe a run of planned tables, then complete them in order;
        returns the latest completion."""
        plans = [lookup.plan for lookup in run if lookup.plan is not None]
        if plans:
            self.chain.probe_run(plans)
        for lookup in run:
            table_start = start_time if self.config.inter_op_parallelism else completion
            completion = max(completion, self._complete_lookup(lookup, table_start))
        return completion

    def _serve_from_fm(self, table_name: str, indices: np.ndarray, start_time: float) -> float:
        row_bytes = self.model.table(table_name).spec.row_bytes
        elapsed = self.compute.embedding_read_time(len(indices), row_bytes)
        self.stats.fm_direct_lookups += len(indices)
        fast = self.tiers[0]
        fast.stats.rows_served += len(indices)
        fast.stats.bytes_served += len(indices) * row_bytes
        return start_time + elapsed

    def _complete_lookup(self, lookup: _TableLookup, start_time: float) -> float:
        """Serve one planned table from ``start_time``; returns its
        completion time."""
        table_name, indices, state = lookup.table_name, lookup.indices, lookup.state
        if state is None:
            return self._serve_from_fm(table_name, indices, start_time)
        cursor = start_time
        recorder = self.recorder
        if lookup.pooled_probed:
            cursor += POOLED_PROBE_SECONDS
            if recorder.enabled:
                recorder.span(
                    "pooled_probe",
                    "sdm",
                    cursor - POOLED_PROBE_SECONDS,
                    POOLED_PROBE_SECONDS,
                    args={"table": table_name, "hit": lookup.pooled_hit},
                )
            if lookup.pooled_hit:
                return cursor
        plan = lookup.plan
        assert plan is not None
        stored = plan.stored
        if state.mapping is not None:
            lookup_seconds = indices.size * MAPPING_LOOKUP_SECONDS
            if recorder.enabled:
                recorder.span(
                    "mapping_lookup",
                    "sdm",
                    cursor,
                    lookup_seconds,
                    args={"table": table_name, "rows": int(indices.size)},
                )
            cursor += lookup_seconds

        # Serve through the tier chain: the probed plan's hits, reads of the
        # misses from each row's home tier, promotion per policy.
        outcome = self.chain.fetch_batch(plan, cursor)
        self.stats.sm_ios += outcome.device_reads
        if recorder.enabled:
            recorder.span(
                f"fetch:{table_name}",
                "sdm",
                cursor,
                outcome.completion_time - cursor,
                args={
                    "rows": int(stored.size),
                    "device_reads": outcome.device_reads,
                },
            )
        cursor = outcome.completion_time

        # Dequantising and pooling the fetched rows is charged by their bytes.
        fetched_bytes = int(stored.size) * state.row_bytes
        dequant_seconds = fetched_bytes / self.compute.dequant_bytes_per_second
        if recorder.enabled and fetched_bytes:
            recorder.span(
                "dequantise", "sdm", cursor, dequant_seconds,
                args={"table": table_name, "bytes": fetched_bytes},
            )
        cursor += dequant_seconds

        if self.pooled_cache is not None:
            self.pooled_cache.put_batch(table_name, indices, state.spec.dim * FLOAT32_BYTES)
        return cursor
