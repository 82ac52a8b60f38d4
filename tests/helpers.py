"""Shared builders for the test suite.

Small, fast model/SDM instances used by many tests.  Everything is seeded so
tests are deterministic.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import sys
from types import ModuleType
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core import DEFAULT_TIERS, SDMConfig, SoftwareDefinedMemory
from repro.dlrm import (
    Bags,
    ComputeSpec,
    DLRMModel,
    EmbeddingTable,
    EmbeddingTableSpec,
    InferenceEngine,
    InMemoryBackend,
    MLP,
    Query,
    pool_bags,
)
from repro.hierarchy import parse_tiers
from repro.sim.units import MIB
from repro.workload import QueryGenerator, WorkloadConfig

#: SDM tuned for the pooled-embedding-cache path of section 4.4: the pooled
#: cache takes the FM budget and every request is eligible for it.
POOLED_SDM_OPTIONS = dict(
    pooled_len_threshold=0, pooled_cache_capacity_bytes=8 * MIB, row_cache_capacity_bytes=1 * MIB
)


def small_table_specs(
    num_user: int = 2,
    num_item: int = 1,
    num_rows: int = 256,
    dim: int = 16,
    pooling_factor: float = 6.0,
) -> List[EmbeddingTableSpec]:
    """A handful of small user and item table specs."""
    specs: List[EmbeddingTableSpec] = []
    for index in range(num_user):
        specs.append(
            EmbeddingTableSpec(
                name=f"user_{index}",
                num_rows=num_rows,
                dim=dim,
                is_user=True,
                avg_pooling_factor=pooling_factor,
                zipf_alpha=1.05,
            )
        )
    for index in range(num_item):
        specs.append(
            EmbeddingTableSpec(
                name=f"item_{index}",
                num_rows=num_rows,
                dim=dim,
                is_user=False,
                avg_pooling_factor=3.0,
                zipf_alpha=1.2,
            )
        )
    return specs


def small_model(
    num_user: int = 2,
    num_item: int = 1,
    num_rows: int = 256,
    dim: int = 16,
    dense_dim: int = 4,
    item_batch: int = 3,
    seed: int = 0,
) -> DLRMModel:
    """A tiny but complete DLRM for fast end-to-end tests."""
    specs = small_table_specs(num_user, num_item, num_rows, dim)
    tables: Dict[str, EmbeddingTable] = {
        spec.name: EmbeddingTable.random(spec, seed=seed) for spec in specs
    }
    bottom_out = 8
    total_dim = sum(spec.dim for spec in specs)
    bottom = MLP([dense_dim, 16, bottom_out], seed=seed, name="test/bottom")
    top = MLP([bottom_out + total_dim, 16, 1], seed=seed, name="test/top")
    return DLRMModel(
        name="test-model",
        bottom_mlp=bottom,
        top_mlp=top,
        tables=tables,
        dense_dim=dense_dim,
        item_batch=item_batch,
    )


def small_sdm_config(**overrides) -> SDMConfig:
    """An SDM config sized for the small test model: a 256 KiB row cache,
    unless tier 0 names a cache of its own, and a 128 KiB pooled cache when
    it is on."""
    defaults: Dict[str, Any] = dict(seed=0)
    if overrides.get("pooled_cache_enabled", True):
        defaults["pooled_cache_capacity_bytes"] = 128 * 1024
    tiers = parse_tiers(overrides.get("tiers", DEFAULT_TIERS))
    if not tiers or tiers[0].cache_bytes is None:
        defaults["row_cache_capacity_bytes"] = 256 * 1024
    defaults.update(overrides)
    return SDMConfig(**defaults)


def small_sdm(model: Optional[DLRMModel] = None, **config_overrides) -> SoftwareDefinedMemory:
    """An SDM instance serving the small test model."""
    model = model if model is not None else small_model()
    return SoftwareDefinedMemory(model, small_sdm_config(**config_overrides))


def small_engine(
    model: Optional[DLRMModel] = None, sdm: Optional[SoftwareDefinedMemory] = None
) -> InferenceEngine:
    """An inference engine wired to an SDM user backend."""
    model = model if model is not None else small_model()
    sdm = sdm if sdm is not None else small_sdm(model)
    return InferenceEngine(model, ComputeSpec(), user_backend=sdm)


def small_queries(model: DLRMModel, count: int = 20, seed: int = 0) -> List[Query]:
    """A deterministic query stream for the small model."""
    generator = QueryGenerator(
        model,
        WorkloadConfig(item_batch=model.item_batch, num_users=200),
        seed=seed,
    )
    return generator.generate(count)


def reference_pooled(model: DLRMModel, query: Query) -> Dict[str, np.ndarray]:
    """Reference pooled user-embedding vectors straight from fast memory."""
    return {
        name: model.table(name).bag(indices)
        for name, indices in query.user_indices.items()
    }


def assert_scores_match_dram(model: DLRMModel, backend: Any, queries: List[Query]) -> None:
    """Serve ``queries`` through ``backend`` and check that the scores its
    engine computes, and the user tables' pooled vectors, equal those of a
    DRAM engine on the same model bit for bit."""
    compute = ComputeSpec()
    engine = InferenceEngine(model, compute, backend)
    dram = InferenceEngine(model, compute, InMemoryBackend(model.tables, compute))
    for query in queries:
        np.testing.assert_array_equal(engine.run_query(query).scores, dram.run_query(query).scores)
        pooled = engine.user_pooled(query.user_indices)
        for table_name, vector in reference_pooled(model, query).items():
            np.testing.assert_array_equal(pooled[table_name], vector)


def golden_encode(value: Any) -> Any:
    """JSON form of a statistics value for the golden files: floats as
    ``float.hex`` (exact), dataclasses as dicts of their compared fields."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: golden_encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): golden_encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [golden_encode(item) for item in value]
    if isinstance(value, (np.generic, np.ndarray)):
        return golden_encode(value.tolist())
    return value


def pack_bags(bags, table: str = "") -> Bags:
    """Pack one index sequence per bag into one :class:`~repro.dlrm.Bags`
    CSR pair, which checks the layout; ``table`` names the table in its
    errors."""
    arrays = [np.asarray(bag) for bag in bags]
    offsets = np.cumsum([0] + [array.size for array in arrays], dtype=np.int64)
    indices = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    return Bags(indices, offsets, table)


def pool_one(table: EmbeddingTable, bags) -> np.ndarray:
    """:func:`~repro.dlrm.pool_bags` of one table's bags, given as index
    sequences: the ``(len(bags), dim)`` pooled matrix."""
    return pool_bags([table], [pack_bags(bags, table.spec.name)])[0][0]


def fetch_rows(
    chain, table_name: str, stored, start_time: float, *, row_len: int, cache_enabled: bool = True
):
    """Serve one request through ``chain`` as a run of one: plan it, probe
    the caches for it, then complete it."""
    plan = chain.plan(table_name, stored, row_len=row_len, cache_enabled=cache_enabled)
    chain.probe_run([plan])
    return chain.fetch_batch(plan, start_time)


def load_script(relative: str) -> ModuleType:
    """Import a script of the repository by its path from the root, with
    the script's own directory on ``sys.path`` while it loads."""
    path = pathlib.Path(__file__).resolve().parents[1] / relative
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module
