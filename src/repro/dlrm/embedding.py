"""Embedding tables and pooled (embedding-bag) lookups.

An :class:`EmbeddingTable` holds its rows in the row-wise quantised byte
layout; its spec's ``row_bytes`` is the size every tier below the model
budgets, lays out and times a row by.  Only the values plane reads the
bytes: :meth:`EmbeddingTable.bag` and :func:`pool_bags`, which
:meth:`~repro.dlrm.inference.InferenceEngine.score` calls.  The serving
stack (caches, tier chain, devices) carries row keys and sizes, not rows,
so a random table (:meth:`EmbeddingTable.random`) generates its bytes only
when something first reads them.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dlrm.quantization import (
    dequantize_rows,
    quantize_rows,
    quantized_row_bytes,
)
from repro.sim.rng import make_rng


def check_positive_int(value: Any, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value`` is a positive
    integer.  Booleans are rejected although Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def check_requests(
    requests: Mapping[str, Sequence[int]], num_rows: Mapping[str, int]
) -> List[np.ndarray]:
    """A query's requests, ``{table: indices}``, as one int64 index vector
    per table in request order: the one check of query input.

    Every table must be in ``num_rows`` (``KeyError``) and every request a
    non-empty one-dimensional integer sequence: nothing is coerced, so
    floats would truncate, booleans would read rows 0 and 1, and a nested
    list would fail far from here.  Then one comparison bounds every index
    of the query by its table's row count, unsigned, so a negative index is
    huge; only when it fails is the first bad table looked for, to name it
    in the ``IndexError``.
    """
    vectors = []
    for table_name, indices in requests.items():
        if table_name not in num_rows:
            raise KeyError(f"no table {table_name!r}")
        where = f"table {table_name!r}: "
        if not isinstance(indices, (np.ndarray, list, tuple, range)):
            indices = list(indices)
        try:
            idx = np.asarray(indices)
        except ValueError:  # ragged nesting
            raise ValueError(f"{where}indices must be one-dimensional") from None
        if idx.size == 0:
            raise ValueError(f"{where}lookup needs at least one index; the request has no indices")
        if idx.dtype.kind not in "iu":
            raise TypeError(f"{where}indices must be integers, got dtype {idx.dtype}")
        if idx.ndim != 1:
            raise ValueError(f"{where}indices must be one-dimensional, got shape {idx.shape}")
        vectors.append(idx.astype(np.int64, copy=False))
    if not vectors:
        return vectors
    bounds = np.array([num_rows[table_name] for table_name in requests], dtype=np.uint64)
    flat = np.concatenate(vectors).view(np.uint64)
    if (flat >= np.repeat(bounds, [idx.size for idx in vectors])).any():
        for table_name, idx, bound in zip(requests, vectors, bounds):
            bad = idx[idx.view(np.uint64) >= bound]
            if bad.size:
                raise IndexError(
                    f"table {table_name!r}: indices out of range [0, {bound}): "
                    f"index {bad[0]} is out of range for table {table_name!r}"
                )
    return vectors


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
        check_positive_int(self.num_rows, f"table {self.name!r}: num_rows")
        check_positive_int(self.dim, f"table {self.name!r}: dim")
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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is read-only, else a read-only view of it."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class Bags:
    """The index bags of one table as one CSR pair.

    Bag ``b`` is ``indices[offsets[b]:offsets[b + 1]]``.  Both arrays are
    read-only int64.  The constructor checks the layout once — ``offsets``
    starts at 0, rises strictly (no bag is empty) and ends at
    ``indices.size`` — so consumers read the arrays as they are; row bounds
    are checked once per query, by :func:`check_requests`.  ``table`` only
    names the table in the layout errors.  Bags compare by identity.
    """

    indices: np.ndarray
    offsets: np.ndarray
    table: InitVar[str] = ""

    def __post_init__(self, table: str) -> None:
        where = f"table {table!r}: " if table else ""
        indices, offsets = np.asarray(self.indices), np.asarray(self.offsets)
        if offsets.ndim != 1 or offsets.size == 0 or offsets.dtype.kind not in "iu":
            raise ValueError(f"{where}offsets must be a non-empty one-dimensional integer array")
        if indices.ndim != 1:
            raise ValueError(f"{where}indices must be one-dimensional, got shape {indices.shape}")
        if offsets[0] != 0:
            raise ValueError(f"{where}offsets must start at 0, got {offsets[0]}")
        rises = offsets[1:] > offsets[:-1]
        if not rises.all():
            bag = int(np.argmin(rises))
            if offsets[bag + 1] < offsets[bag]:
                raise ValueError(f"{where}offsets decrease at bag {bag}")
            raise ValueError(f"{where}bag {bag} is empty; a lookup needs at least one index")
        if offsets[-1] != indices.size:
            raise ValueError(
                f"{where}offsets end at {offsets[-1]} but there are {indices.size} indices"
            )
        if indices.dtype.kind not in "iu":
            raise TypeError(f"{where}indices must be integers, got dtype {indices.dtype}")
        object.__setattr__(self, "indices", _read_only(indices.astype(np.int64, copy=False)))
        object.__setattr__(self, "offsets", _read_only(offsets.astype(np.int64, copy=False)))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key: Union[int, slice]) -> Union[np.ndarray, "Bags"]:
        """Bag ``key`` as a view of ``indices``; a step-1 slice of bags as
        ``Bags`` over a view of ``indices``."""
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError(f"bag slices need step 1, got {step}")
            offsets = self.offsets[start : max(start, stop) + 1]
            return Bags(self.indices[offsets[0] : offsets[-1]], offsets - offsets[0])
        count = len(self)
        if not -count <= key < count:
            raise IndexError(f"bag {key} out of range for {count} bags")
        key %= count
        return self.indices[self.offsets[key] : self.offsets[key + 1]]

    @property
    def lengths(self) -> np.ndarray:
        """The int64 row count of every bag."""
        return self.offsets[1:] - self.offsets[:-1]


@dataclass(frozen=True)
class RandomRows:
    """The bytes of a random table, as a recipe: ``spec.num_rows x spec.dim``
    normal values drawn from ``make_rng(seed, "embedding", spec.name)``, then
    row-wise quantised.  Small and picklable; :meth:`generate` is pure."""

    spec: EmbeddingTableSpec
    seed: int = 0

    def generate(self) -> np.ndarray:
        rng = make_rng(self.seed, "embedding", self.spec.name)
        values = rng.normal(0.0, 0.1, size=(self.spec.num_rows, self.spec.dim))
        return quantize_rows(values.astype(np.float32), bits=self.spec.quant_bits)


class EmbeddingTable:
    """An embedding table in the quantised byte layout.

    ``quantized_rows`` is either the ``(num_rows, row_bytes)`` byte matrix or
    a :class:`RandomRows` recipe, which is generated the first time ``data``
    is read (:attr:`materialised` tells which has happened).  Everything but
    the values — sizes, bounds checks, the serving stack — reads the spec
    only, so a run that reads no values generates none.  ``data`` is
    read-only: one model can back several resident backends, so none may
    write through it, and a shared table is generated once.
    """

    def __init__(
        self, spec: EmbeddingTableSpec, quantized_rows: Union[np.ndarray, RandomRows]
    ) -> None:
        self.spec = spec
        self._source: Optional[RandomRows] = None
        self._data: Optional[np.ndarray] = None
        if isinstance(quantized_rows, RandomRows):
            if quantized_rows.spec != spec:
                raise ValueError(
                    f"table {spec.name!r}: the random-rows recipe is for table "
                    f"{quantized_rows.spec.name!r} with another spec"
                )
            self._source = quantized_rows
        else:
            self._data = self._checked(quantized_rows)

    def _checked(self, quantized_rows: np.ndarray) -> np.ndarray:
        quantized_rows = np.asarray(quantized_rows, dtype=np.uint8)
        expected_shape = (self.spec.num_rows, self.spec.row_bytes)
        if quantized_rows.shape != expected_shape:
            raise ValueError(
                f"table {self.spec.name!r}: expected quantised data of shape {expected_shape}, "
                f"got {quantized_rows.shape}"
            )
        # A read-only view: the caller's array keeps its own flags.
        return _read_only(quantized_rows)

    @property
    def data(self) -> np.ndarray:
        """The read-only ``(num_rows, row_bytes)`` uint8 rows."""
        if self._data is None:
            self._data = self._checked(self._source.generate())
        return self._data

    @property
    def materialised(self) -> bool:
        """Whether the rows exist in memory (always, for explicit data)."""
        return self._data is not None

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Unpickled and deep-copied arrays come back writeable.
        self.__dict__.update(state)
        if self._data is not None:
            self._data.setflags(write=False)

    # ------------------------------------------------------------- builders
    @classmethod
    def random(cls, spec: EmbeddingTableSpec, seed: int = 0) -> "EmbeddingTable":
        """A table of random (but reproducible) values, generated on first read."""
        return cls(spec, RandomRows(spec, seed))

    # -------------------------------------------------------------- lookups
    def check_indices(self, indices: Sequence[int]) -> np.ndarray:
        """``indices`` as a bounds-checked int64 vector: the one-table call
        of :func:`check_requests`."""
        return check_requests({self.spec.name: indices}, {self.spec.name: self.spec.num_rows})[0]

    def lookup_raw(self, indices: Sequence[int]) -> np.ndarray:
        """Raw serialized bytes of several rows, shape ``(n, row_bytes)``."""
        idx = self.check_indices(indices)
        return self.data[idx]

    def lookup_dense(self, indices: Sequence[int]) -> np.ndarray:
        """Dequantised float rows, shape ``(n, dim)``."""
        raw = self.lookup_raw(indices)
        return dequantize_rows(raw, self.spec.dim, self.spec.quant_bits)

    def bag(self, indices: Sequence[int]) -> np.ndarray:
        """Sum-pooled dense vector over ``indices`` (EmbeddingBag / SLS)."""
        return self.lookup_dense(indices).sum(axis=0)

    @property
    def size_bytes(self) -> int:
        return self.spec.size_bytes

    def __repr__(self) -> str:
        return (
            f"EmbeddingTable(name={self.spec.name!r}, rows={self.spec.num_rows}, "
            f"dim={self.spec.dim}, bits={self.spec.quant_bits})"
        )


def pool_bags(
    tables: Sequence[EmbeddingTable],
    bags_per_table: Sequence[Bags],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Sum-pool every bag of every table in one pass.

    ``bags_per_table[t]`` holds the bags looked up in ``tables[t]``; tables
    may differ in width, ``quant_bits`` and bag count.
    Returns ``(pooled, lengths)``: ``pooled[t]`` is the ``(bags, dim)``
    float32 matrix of table ``t`` — row ``b`` bit-identical to
    ``tables[t].bag(bags_per_table[t][b])`` — and ``lengths`` the int64 row
    count of every bag, table by table.

    ``bag`` adds a bag's rows left to right, ``((r0 + r1) + r2) + ...``, and
    float addition does not reassociate (``np.add.reduceat`` differs in the
    last bit for bags of three or more rows).  So the rows of *all* bags are
    laid out step-major — the k-th row of every bag longer than k, bags
    ordered longest first so that each step is a contiguous prefix of the
    accumulator — and added one step at a time; a bag's sum never mixes with
    another bag's.  All tables pay one bounds check (:func:`check_requests`)
    and each table one gather, whose rows are scattered into one byte buffer
    as wide as the widest row, which is dequantised once per ``quant_bits``
    at that group's widest ``dim``.
    The columns past a narrower table's own ``dim`` hold padding that no
    returned matrix includes.
    """
    if len(tables) != len(bags_per_table):
        raise ValueError(f"{len(tables)} tables but {len(bags_per_table)} bag lists")
    if not tables:
        return [], np.empty(0, dtype=np.int64)
    requests = {table.spec.name: bags.indices for table, bags in zip(tables, bags_per_table)}
    if len(requests) != len(tables):
        raise ValueError("the tables must have distinct names")
    flats = check_requests(requests, {table.spec.name: table.spec.num_rows for table in tables})
    bag_bounds = list(accumulate(map(len, bags_per_table), initial=0))
    num_bags = bag_bounds[-1]
    lengths = np.concatenate([bags.lengths for bags in bags_per_table])

    # rank[b] = position of bag b when bags are ordered longest first.
    rank = np.empty(num_bags, dtype=np.int64)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(num_bags)
    # step_size[k] bags are longer than k; their k-th rows sit at
    # step_start[k] + rank in the step-major layout.
    step_size = num_bags - np.bincount(lengths).cumsum()[:-1]
    step_start = step_size.cumsum() - step_size
    bag_start = lengths.cumsum() - lengths
    num_rows = int(lengths.sum())
    step_of_row = np.arange(num_rows) - np.repeat(bag_start, lengths)
    destination = step_start[step_of_row] + np.repeat(rank, lengths)

    buffer = np.empty((num_rows, max(table.spec.row_bytes for table in tables)), dtype=np.uint8)
    row_bounds = np.append(bag_start, num_rows)[bag_bounds].tolist()
    group_dim: Dict[int, int] = {}  # quant_bits -> widest dim
    group_rows: Dict[int, List[np.ndarray]] = {}  # quant_bits -> buffer rows, per table
    for position, (table, flat) in enumerate(zip(tables, flats)):
        rows = destination[row_bounds[position] : row_bounds[position + 1]]
        buffer[rows, : table.spec.row_bytes] = table.data.take(flat, axis=0)
        bits = table.spec.quant_bits
        group_dim[bits] = max(group_dim.get(bits, 0), table.spec.dim)
        group_rows.setdefault(bits, []).append(rows)

    if len(group_dim) == 1:
        ((bits, dim),) = group_dim.items()
        dense = dequantize_rows(buffer[:, : quantized_row_bytes(dim, bits)], dim, bits)
    else:
        # Zero-filled: the step loop adds up a narrower group's pad columns.
        dense = np.zeros((num_rows, max(group_dim.values())), dtype=np.float32)
        for bits, dim in group_dim.items():
            rows = np.concatenate(group_rows[bits])
            dense[rows, :dim] = dequantize_rows(
                buffer[rows, : quantized_row_bytes(dim, bits)], dim, bits
            )

    pooled = dense[:num_bags]
    for start, size in zip(step_start[1:].tolist(), step_size[1:].tolist()):
        pooled[:size] += dense[start : start + size]
    ordered = pooled.take(rank, axis=0)
    return [
        ordered[bag_bounds[position] : bag_bounds[position + 1], : table.spec.dim]
        for position, table in enumerate(tables)
    ], lengths
