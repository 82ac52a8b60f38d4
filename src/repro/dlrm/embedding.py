"""Embedding tables and pooled (embedding-bag) lookups.

An :class:`EmbeddingTable` stores its rows in the row-wise quantised byte
layout (the same bytes that would live on the SM tier), so a lookup returns
real data whether it came from DRAM, the FM row cache, or a simulated SSD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.dlrm.quantization import (
    dequantize_rows,
    quantize_rows,
    quantized_row_bytes,
)
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """Static description of one embedding table.

    Attributes
    ----------
    name:
        Unique table name.
    num_rows:
        Cardinality of the categorical feature (post hashing).
    dim:
        Number of embedding elements per row.
    quant_bits:
        Row-wise quantisation width (4 or 8 bit).
    is_user:
        ``True`` for user-side tables, ``False`` for item-side tables.  User
        tables are accessed once per query (batch 1) while item tables are
        accessed for every candidate item; this drives the bandwidth skew the
        paper exploits.
    avg_pooling_factor:
        Average number of rows looked up per query (the paper's ``p_i``).
    zipf_alpha:
        Skew of the access distribution for synthetic workload generation.
    pruned_fraction:
        Fraction of rows removed by post-training pruning (0 when unpruned).
    """

    name: str
    num_rows: int
    dim: int
    quant_bits: int = 8
    is_user: bool = True
    avg_pooling_factor: float = 1.0
    zipf_alpha: float = 1.05
    pruned_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"table {self.name!r}: num_rows must be positive: {self.num_rows}")
        if self.dim <= 0:
            raise ValueError(f"table {self.name!r}: dim must be positive: {self.dim}")
        if self.quant_bits not in (4, 8):
            raise ValueError(f"table {self.name!r}: quant_bits must be 4 or 8: {self.quant_bits}")
        if self.avg_pooling_factor <= 0:
            raise ValueError(
                f"table {self.name!r}: avg_pooling_factor must be positive: "
                f"{self.avg_pooling_factor}"
            )
        if not 0.0 <= self.pruned_fraction < 1.0:
            raise ValueError(
                f"table {self.name!r}: pruned_fraction must be in [0, 1): {self.pruned_fraction}"
            )

    @property
    def row_bytes(self) -> int:
        """Serialized bytes per quantised row."""
        return quantized_row_bytes(self.dim, self.quant_bits)

    @property
    def size_bytes(self) -> int:
        """Total serialized table size."""
        return self.num_rows * self.row_bytes

    @property
    def bytes_per_query(self) -> float:
        """Average bytes read from this table per single-sample query."""
        return self.avg_pooling_factor * self.row_bytes

    def with_rows(self, num_rows: int) -> "EmbeddingTableSpec":
        return replace(self, num_rows=num_rows)


class EmbeddingTable:
    """A materialised embedding table in the quantised byte layout."""

    def __init__(self, spec: EmbeddingTableSpec, quantized_rows: np.ndarray) -> None:
        quantized_rows = np.asarray(quantized_rows, dtype=np.uint8)
        expected_shape = (spec.num_rows, spec.row_bytes)
        if quantized_rows.shape != expected_shape:
            raise ValueError(
                f"table {spec.name!r}: expected quantised data of shape {expected_shape}, "
                f"got {quantized_rows.shape}"
            )
        self.spec = spec
        # A read-only view (the caller's array keeps its own flags): one model
        # can back several resident backends, so none may write through it.
        self.data = quantized_rows.view()
        self.data.setflags(write=False)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_float(cls, spec: EmbeddingTableSpec, values: np.ndarray) -> "EmbeddingTable":
        """Quantise a float matrix into a table."""
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (spec.num_rows, spec.dim):
            raise ValueError(
                f"table {spec.name!r}: expected float values of shape "
                f"{(spec.num_rows, spec.dim)}, got {values.shape}"
            )
        return cls(spec, quantize_rows(values, bits=spec.quant_bits))

    @classmethod
    def random(cls, spec: EmbeddingTableSpec, seed: int = 0) -> "EmbeddingTable":
        """Build a table with random (but reproducible) embedding values."""
        rng = make_rng(seed, "embedding", spec.name)
        values = rng.normal(0.0, 0.1, size=(spec.num_rows, spec.dim)).astype(np.float32)
        return cls.from_float(spec, values)

    # -------------------------------------------------------------- lookups
    def _check_indices(self, indices: Sequence[int]) -> np.ndarray:
        if not isinstance(indices, (np.ndarray, range)):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError(f"table {self.spec.name!r}: lookup needs at least one index")
        if idx.min() < 0 or idx.max() >= self.spec.num_rows:
            raise IndexError(
                f"table {self.spec.name!r}: indices out of range [0, {self.spec.num_rows})"
            )
        return idx

    def row_bytes_at(self, index: int) -> bytes:
        """Raw serialized bytes of one row (what the SM tier stores)."""
        idx = self._check_indices([index])[0]
        return self.data[idx].tobytes()

    def lookup_raw(self, indices: Sequence[int]) -> np.ndarray:
        """Raw serialized bytes of several rows, shape ``(n, row_bytes)``."""
        idx = self._check_indices(indices)
        return self.data[idx]

    def lookup_dense(self, indices: Sequence[int]) -> np.ndarray:
        """Dequantised float rows, shape ``(n, dim)``."""
        raw = self.lookup_raw(indices)
        return dequantize_rows(raw, self.spec.dim, self.spec.quant_bits)

    def bag(self, indices: Sequence[int]) -> np.ndarray:
        """Sum-pooled dense vector over ``indices`` (EmbeddingBag / SLS)."""
        return self.lookup_dense(indices).sum(axis=0)

    def bag_batch(self, bags: Sequence[Sequence[int]]) -> np.ndarray:
        """Sum-pooled dense vectors of several bags, shape ``(len(bags), dim)``.

        Row ``b`` is bit-identical to ``bag(bags[b])`` at the cost of one
        bounds check, one gather and one dequantisation for the whole batch.
        ``bag`` adds a bag's rows left to right, ``((r0 + r1) + r2) + ...``,
        and float addition does not reassociate (``np.add.reduceat`` differs
        in the last bit for bags of three or more rows).  So the rows are
        gathered step-major — the k-th row of every bag longer than k, bags
        ordered longest first so that each step is a contiguous prefix of
        the accumulator — and added one step at a time.
        """
        num_bags = len(bags)
        lengths = np.fromiter(map(len, bags), dtype=np.int64, count=num_bags)
        if not lengths.all():
            raise ValueError(f"table {self.spec.name!r}: lookup needs at least one index")
        flat = self._check_indices(
            np.fromiter(chain.from_iterable(bags), dtype=np.int64, count=int(lengths.sum()))
        )

        # rank[b] = position of bag b when bags are ordered longest first.
        rank = np.argsort(np.argsort(-lengths, kind="stable"))
        # step_size[k] bags are longer than k; their k-th rows sit at
        # step_start[k] + rank in the step-major gather.
        step_size = num_bags - np.bincount(lengths).cumsum()[:-1]
        step_start = step_size.cumsum() - step_size
        bag_start = lengths.cumsum() - lengths
        step_of_row = np.arange(flat.size) - np.repeat(bag_start, lengths)
        step_major = np.empty_like(flat)
        step_major[step_start[step_of_row] + np.repeat(rank, lengths)] = flat

        dense = dequantize_rows(self.data[step_major], self.spec.dim, self.spec.quant_bits)
        pooled = dense[:num_bags].copy()
        for start, size in zip(step_start[1:].tolist(), step_size[1:].tolist()):
            pooled[:size] += dense[start : start + size]
        return pooled[rank]

    def iter_row_bytes(self) -> Iterable[bytes]:
        """Iterate serialized rows in index order (used when loading to SM)."""
        for row in self.data:
            yield row.tobytes()

    @property
    def size_bytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return (
            f"EmbeddingTable(name={self.spec.name!r}, rows={self.spec.num_rows}, "
            f"dim={self.spec.dim}, bits={self.spec.quant_bits})"
        )
