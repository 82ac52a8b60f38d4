"""Post-training pruning of embedding tables.

Pruning removes rows whose values are close to zero and introduces a mapping
tensor from unpruned index space to the compacted pruned space (section 4.5).
The mapping tensor costs ``num_unpruned_rows * index_bytes`` of memory and,
when the pruned table lives on SM, that memory competes with the FM row
cache -- which is what motivates de-pruning at load time (Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dlrm.embedding import EmbeddingTable, EmbeddingTableSpec, check_requests

#: Sentinel in the mapping tensor for a pruned (removed) row.
PRUNED = -1


@dataclass
class PrunedEmbeddingTable:
    """A pruned table: compacted rows plus the unpruned->pruned mapping."""

    original_spec: EmbeddingTableSpec
    table: EmbeddingTable
    mapping: np.ndarray
    index_bytes: int = 4

    def __post_init__(self) -> None:
        if self.mapping.shape != (self.original_spec.num_rows,):
            raise ValueError(
                f"mapping tensor must have one entry per unpruned row "
                f"({self.original_spec.num_rows}), got shape {self.mapping.shape}"
            )
        if self.index_bytes not in (4, 8):
            raise ValueError(f"index_bytes must be 4 or 8: {self.index_bytes}")
        kept = self.mapping[self.mapping != PRUNED]
        if kept.size != self.table.spec.num_rows:
            raise ValueError(
                f"mapping references {kept.size} kept rows but the pruned table has "
                f"{self.table.spec.num_rows}"
            )

    @property
    def mapping_tensor_bytes(self) -> int:
        """FM bytes consumed by the mapping tensor (kept in FM per the paper)."""
        return int(self.mapping.size) * self.index_bytes

    @property
    def num_pruned_rows(self) -> int:
        return int(np.count_nonzero(self.mapping == PRUNED))

    @property
    def pruned_fraction(self) -> float:
        return self.num_pruned_rows / self.mapping.size

    def lookup_dense(self, indices: Sequence[int]) -> np.ndarray:
        """Dequantised rows addressed in the *unpruned* index space.

        Pruned rows dequantise to zero vectors, matching serving semantics.
        """
        name = self.original_spec.name
        (idx,) = check_requests({name: indices}, {name: int(self.mapping.size)})
        mapped = self.mapping[idx]
        out = np.zeros((idx.size, self.original_spec.dim), dtype=np.float32)
        live = mapped != PRUNED
        if np.any(live):
            out[live] = self.table.lookup_dense(mapped[live])
        return out

    def bag(self, indices: Sequence[int]) -> np.ndarray:
        """Sum-pooled vector over unpruned-space ``indices``."""
        return self.lookup_dense(indices).sum(axis=0)


def prune_table(
    table: EmbeddingTable,
    prune_fraction: float,
    seed: int = 0,
    index_bytes: int = 4,
) -> PrunedEmbeddingTable:
    """Prune the rows with the smallest L2 norm.

    ``prune_fraction`` of the rows (those closest to zero, as in the paper's
    heuristic) are removed; the rest are compacted and a mapping tensor is
    produced.  ``seed`` only breaks ties deterministically.
    """
    if not 0.0 <= prune_fraction < 1.0:
        raise ValueError(f"prune_fraction must be in [0, 1): {prune_fraction}")
    spec = table.spec
    dense = table.lookup_dense(range(spec.num_rows))
    norms = np.linalg.norm(dense, axis=1)
    num_pruned = int(round(prune_fraction * spec.num_rows))
    num_kept = spec.num_rows - num_pruned
    if num_kept <= 0:
        raise ValueError(
            f"pruning {prune_fraction:.2%} of {spec.num_rows} rows leaves no rows"
        )
    # argsort is deterministic; add a tiny index-based epsilon so exact ties
    # (e.g. all-zero rows) are broken the same way on every platform.
    order = np.argsort(norms + np.arange(spec.num_rows) * 1e-12)
    pruned_rows = set(order[:num_pruned].tolist())

    mapping = np.full(spec.num_rows, PRUNED, dtype=np.int64)
    kept_indices = [i for i in range(spec.num_rows) if i not in pruned_rows]
    for new_index, original_index in enumerate(kept_indices):
        mapping[original_index] = new_index

    pruned_spec = EmbeddingTableSpec(
        name=f"{spec.name}/pruned",
        num_rows=num_kept,
        dim=spec.dim,
        quant_bits=spec.quant_bits,
        is_user=spec.is_user,
        avg_pooling_factor=spec.avg_pooling_factor,
        zipf_alpha=spec.zipf_alpha,
        pruned_fraction=prune_fraction,
    )
    pruned_table = EmbeddingTable(pruned_spec, table.data[kept_indices])
    return PrunedEmbeddingTable(
        original_spec=spec,
        table=pruned_table,
        mapping=mapping,
        index_bytes=index_bytes,
    )
