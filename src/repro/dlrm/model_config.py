"""Model specifications for the paper's target models (Table 6).

The paper evaluates three production-representative models: M1 (143 GB,
CPU-served), M2 (150 GB, accelerator-served, scale-out candidate) and M3
(1 TB, a projected future model used for the multi-tenancy study).  A
:class:`ModelSpec` captures the analytic characteristics the experiments need
(table counts, dimension ranges, pooling factors, batch sizes, MLP shape) and
can both (a) generate per-table profiles for capacity/bandwidth analysis and
(b) build a scaled-down concrete :class:`~repro.dlrm.model.DLRMModel` whose
row counts fit in laptop memory while preserving the paper's distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dlrm.embedding import EmbeddingTable, EmbeddingTableSpec, check_positive_int
from repro.dlrm.mlp import MLP
from repro.dlrm.model import DLRMModel
from repro.dlrm.quantization import QUANT_PARAM_BYTES
from repro.sim.rng import make_rng
from repro.sim.units import GB


@dataclass(frozen=True)
class TableGroupSpec:
    """Aggregate description of one group (user or item) of embedding tables."""

    num_tables: int
    row_bytes_min: int
    row_bytes_max: int
    row_bytes_avg: int
    avg_pooling_factor: float
    batch_size: int
    capacity_bytes: float

    def __post_init__(self) -> None:
        if self.num_tables <= 0:
            raise ValueError(f"num_tables must be positive: {self.num_tables}")
        if not self.row_bytes_min <= self.row_bytes_avg <= self.row_bytes_max:
            raise ValueError(
                "row_bytes_avg must lie within [row_bytes_min, row_bytes_max]: "
                f"{self.row_bytes_min} <= {self.row_bytes_avg} <= {self.row_bytes_max}"
            )
        if self.avg_pooling_factor <= 0:
            raise ValueError(f"avg_pooling_factor must be positive: {self.avg_pooling_factor}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {self.batch_size}")
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive: {self.capacity_bytes}")


@dataclass(frozen=True)
class TableProfile:
    """Analytic profile of one table (no materialised data).

    ``bytes_per_query`` is the per-query read volume including the batch
    factor: user tables are read once per query, item tables once per ranked
    item.
    """

    spec: EmbeddingTableSpec
    batch_size: int

    @property
    def size_bytes(self) -> int:
        return self.spec.size_bytes

    @property
    def bytes_per_query(self) -> float:
        return self.batch_size * self.spec.avg_pooling_factor * self.spec.row_bytes

    @property
    def lookups_per_query(self) -> float:
        return self.batch_size * self.spec.avg_pooling_factor


@dataclass(frozen=True)
class ModelSpec:
    """Analytic description of a target model (one column of Table 6)."""

    name: str
    num_parameters: float
    size_bytes: float
    user_tables: TableGroupSpec
    item_tables: TableGroupSpec
    num_mlp_layers: int
    avg_mlp_size: int
    quant_bits: int = 8
    user_zipf_alpha: float = 0.95
    item_zipf_alpha: float = 1.15

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {self.size_bytes}")
        if self.num_mlp_layers <= 0:
            raise ValueError(f"num_mlp_layers must be positive: {self.num_mlp_layers}")
        if self.avg_mlp_size <= 0:
            raise ValueError(f"avg_mlp_size must be positive: {self.avg_mlp_size}")

    # ------------------------------------------------------------ aggregates
    @property
    def num_tables(self) -> int:
        return self.user_tables.num_tables + self.item_tables.num_tables

    @property
    def item_batch(self) -> int:
        return self.item_tables.batch_size

    # -------------------------------------------------------------- profiles
    def _group_profiles(
        self, group: TableGroupSpec, is_user: bool, alpha: float, seed: int, prefix: str
    ) -> List[TableProfile]:
        rng = make_rng(seed, self.name, prefix)
        # Draw per-table row-byte sizes from a lognormal clipped to the group
        # range and rescaled so the mean matches the quoted average.
        raw = rng.lognormal(mean=0.0, sigma=0.6, size=group.num_tables)
        raw = raw / raw.mean() * group.row_bytes_avg
        row_bytes = np.clip(raw, group.row_bytes_min, group.row_bytes_max)

        # Per-table capacity share is heavy tailed (a few tables dominate the
        # model size, as in Figure 1), then scaled so the group total matches.
        share = rng.pareto(1.2, size=group.num_tables) + 0.05
        share = share / share.sum() * group.capacity_bytes

        # Pooling factors vary around the group average.
        pooling = np.clip(
            rng.gamma(shape=2.0, scale=group.avg_pooling_factor / 2.0, size=group.num_tables),
            1.0,
            None,
        )

        profiles: List[TableProfile] = []
        for index in range(group.num_tables):
            rb = int(round(row_bytes[index]))
            rb = max(rb, QUANT_PARAM_BYTES + 1)
            dim = max(rb - QUANT_PARAM_BYTES, 1) if self.quant_bits == 8 else max((rb - QUANT_PARAM_BYTES) * 2, 1)
            num_rows = max(int(share[index] // rb), 1)
            spec = EmbeddingTableSpec(
                name=f"{self.name}/{prefix}_{index:04d}",
                num_rows=num_rows,
                dim=dim,
                quant_bits=self.quant_bits,
                is_user=is_user,
                avg_pooling_factor=float(pooling[index]),
                zipf_alpha=alpha,
            )
            profiles.append(TableProfile(spec=spec, batch_size=group.batch_size))
        return profiles

    def table_profiles(self, seed: int = 0) -> List[TableProfile]:
        """Generate per-table analytic profiles consistent with the spec."""
        user = self._group_profiles(
            self.user_tables, True, self.user_zipf_alpha, seed, "user"
        )
        item = self._group_profiles(
            self.item_tables, False, self.item_zipf_alpha, seed, "item"
        )
        return user + item


# --------------------------------------------------------------------------
# Table 6 of the paper.
# --------------------------------------------------------------------------

M1_SPEC = ModelSpec(
    name="M1",
    num_parameters=143e9,
    size_bytes=143 * GB,
    user_tables=TableGroupSpec(
        num_tables=61,
        row_bytes_min=90,
        row_bytes_max=172,
        row_bytes_avg=130,
        avg_pooling_factor=42.0,
        batch_size=1,
        capacity_bytes=100 * GB,
    ),
    item_tables=TableGroupSpec(
        num_tables=30,
        row_bytes_min=90,
        row_bytes_max=172,
        row_bytes_avg=130,
        avg_pooling_factor=9.0,
        batch_size=50,
        capacity_bytes=43 * GB,
    ),
    num_mlp_layers=31,
    avg_mlp_size=300,
)

M2_SPEC = ModelSpec(
    name="M2",
    num_parameters=450e9,
    size_bytes=150 * GB,
    user_tables=TableGroupSpec(
        num_tables=450,
        row_bytes_min=32,
        row_bytes_max=288,
        row_bytes_avg=64,
        avg_pooling_factor=25.0,
        batch_size=1,
        capacity_bytes=100 * GB,
    ),
    item_tables=TableGroupSpec(
        num_tables=280,
        row_bytes_min=32,
        row_bytes_max=288,
        row_bytes_avg=48,
        avg_pooling_factor=14.0,
        batch_size=150,
        capacity_bytes=50 * GB,
    ),
    num_mlp_layers=43,
    avg_mlp_size=735,
)

M3_SPEC = ModelSpec(
    name="M3",
    num_parameters=5e12,
    size_bytes=1000 * GB,
    user_tables=TableGroupSpec(
        num_tables=1800,
        row_bytes_min=32,
        row_bytes_max=512,
        row_bytes_avg=192,
        avg_pooling_factor=26.0,
        batch_size=1,
        capacity_bytes=670 * GB,
    ),
    item_tables=TableGroupSpec(
        num_tables=900,
        row_bytes_min=32,
        row_bytes_max=512,
        row_bytes_avg=192,
        avg_pooling_factor=26.0,
        batch_size=1000,
        capacity_bytes=330 * GB,
    ),
    num_mlp_layers=35,
    avg_mlp_size=6000,
)

ALL_MODEL_SPECS: Dict[str, ModelSpec] = {
    spec.name: spec for spec in (M1_SPEC, M2_SPEC, M3_SPEC)
}


def figure1_model_spec() -> ModelSpec:
    """The 140 GB / 734-table model of Figure 1 (445 user tables, 100 GB user)."""
    return ModelSpec(
        name="Fig1Model",
        num_parameters=140e9,
        size_bytes=140 * GB,
        user_tables=TableGroupSpec(
            num_tables=445,
            row_bytes_min=32,
            row_bytes_max=288,
            row_bytes_avg=96,
            avg_pooling_factor=20.0,
            batch_size=1,
            capacity_bytes=100 * GB,
        ),
        item_tables=TableGroupSpec(
            num_tables=289,
            row_bytes_min=32,
            row_bytes_max=288,
            row_bytes_avg=96,
            avg_pooling_factor=15.0,
            batch_size=100,
            capacity_bytes=40 * GB,
        ),
        num_mlp_layers=30,
        avg_mlp_size=512,
    )


# --------------------------------------------------------------------------
# Scaled concrete models for end-to-end simulation.
# --------------------------------------------------------------------------


def build_scaled_model(
    spec: ModelSpec,
    max_tables_per_group: int = 8,
    max_rows_per_table: int = 2048,
    dense_dim: int = 13,
    bottom_out_dim: int = 16,
    mlp_width: int = 64,
    item_batch: Optional[int] = None,
    seed: int = 0,
) -> DLRMModel:
    """Build a laptop-scale DLRM that mirrors ``spec``'s structure.

    Row counts, table counts and MLP widths are scaled down so the model fits
    comfortably in memory and queries execute in microseconds of host time,
    while the relative structure (user vs item tables, per-table dims and
    pooling factors, batched item lookups) follows the spec.  The scaled model
    is what the end-to-end SDM experiments run against; capacity-level
    results use the analytic :meth:`ModelSpec.table_profiles` instead.

    The build draws the MLP weights but no table values: each table is
    :meth:`EmbeddingTable.random`, generated the first time its values are
    read, byte for byte what an eager build would hold.  Every argument is
    still checked here.
    """
    check_positive_int(max_tables_per_group, "max_tables_per_group")
    check_positive_int(max_rows_per_table, "max_rows_per_table")

    profiles = spec.table_profiles(seed=seed)
    user_profiles = [p for p in profiles if p.spec.is_user][:max_tables_per_group]
    item_profiles = [p for p in profiles if not p.spec.is_user][:max_tables_per_group]
    if not user_profiles or not item_profiles:
        raise ValueError(f"model spec {spec.name!r} must have both user and item tables")

    tables: Dict[str, EmbeddingTable] = {}
    scaled_specs: List[EmbeddingTableSpec] = []
    for profile in user_profiles + item_profiles:
        table_spec = profile.spec
        scaled_rows = min(table_spec.num_rows, max_rows_per_table)
        # Keep pooling factors sane relative to the scaled-down row count.
        scaled_pf = min(table_spec.avg_pooling_factor, max(scaled_rows / 4.0, 1.0))
        scaled = EmbeddingTableSpec(
            name=table_spec.name,
            num_rows=scaled_rows,
            dim=table_spec.dim,
            quant_bits=table_spec.quant_bits,
            is_user=table_spec.is_user,
            avg_pooling_factor=scaled_pf,
            zipf_alpha=table_spec.zipf_alpha,
        )
        scaled_specs.append(scaled)
        tables[scaled.name] = EmbeddingTable.random(scaled, seed=seed)

    total_embedding_dim = sum(s.dim for s in scaled_specs)
    bottom_mlp = MLP([dense_dim, mlp_width, bottom_out_dim], seed=seed, name=f"{spec.name}/bottom")
    top_mlp = MLP(
        [bottom_out_dim + total_embedding_dim, mlp_width, mlp_width, 1],
        seed=seed,
        name=f"{spec.name}/top",
    )
    return DLRMModel(
        name=spec.name,
        bottom_mlp=bottom_mlp,
        top_mlp=top_mlp,
        tables=tables,
        dense_dim=dense_dim,
        item_batch=item_batch if item_batch is not None else spec.item_batch,
    )
