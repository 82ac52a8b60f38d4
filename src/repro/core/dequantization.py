"""De-quantisation at load time (appendix A.5).

With cheap SM capacity, embedding tables can be expanded to float32 when
loaded onto SM, saving the dequantisation work at serving time.  The cost is
a larger SM footprint and -- more importantly -- a less efficient FM cache,
because each cached row is now ``4 * dim`` bytes instead of ``dim + 8``.  The
paper finds this only helps in very CPU-bound cases; the pooled embedding
cache is the more targeted alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dlrm.embedding import EmbeddingTable, EmbeddingTableSpec


def dequantized_row_bytes(dim: int) -> int:
    """Bytes of one row expanded to float32 (no quantisation parameters)."""
    return dim * np.dtype(np.float32).itemsize


@dataclass
class DequantizedTable:
    """A table expanded to float32 rows for SM storage."""

    spec: EmbeddingTableSpec
    data: np.ndarray  # (num_rows, dim) float32

    def __post_init__(self) -> None:
        expected = (self.spec.num_rows, self.spec.dim)
        if self.data.shape != expected:
            raise ValueError(
                f"dequantised table {self.spec.name!r} expected shape {expected}, "
                f"got {self.data.shape}"
            )

    @property
    def row_bytes(self) -> int:
        """Serialized bytes per row on SM (float32 elements, no quant params)."""
        return dequantized_row_bytes(self.spec.dim)

    @property
    def size_bytes(self) -> int:
        return self.spec.num_rows * self.row_bytes


@dataclass(frozen=True)
class DequantizeResult:
    """Outcome of de-quantising one table for SM placement."""

    table: DequantizedTable
    sm_bytes_before: int
    sm_bytes_after: int
    cache_rows_per_mib_before: float
    cache_rows_per_mib_after: float

    @property
    def sm_growth_factor(self) -> float:
        return self.sm_bytes_after / self.sm_bytes_before

    @property
    def cache_efficiency_loss(self) -> float:
        """Fractional reduction in rows cacheable per MiB of FM."""
        return 1.0 - self.cache_rows_per_mib_after / self.cache_rows_per_mib_before


def dequantize_table(table: EmbeddingTable) -> DequantizeResult:
    """Expand a quantised table to float32 rows at load time."""
    dense = table.lookup_dense(range(table.spec.num_rows)).astype(np.float32)
    dequantized = DequantizedTable(spec=table.spec, data=dense)
    mib = 1024.0 * 1024.0
    return DequantizeResult(
        table=dequantized,
        sm_bytes_before=table.size_bytes,
        sm_bytes_after=dequantized.size_bytes,
        cache_rows_per_mib_before=mib / table.spec.row_bytes,
        cache_rows_per_mib_after=mib / dequantized.row_bytes,
    )
