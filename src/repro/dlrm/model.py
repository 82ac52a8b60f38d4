"""The DLRM model: bottom MLP, embeddings, interaction, top MLP (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.dlrm.embedding import EmbeddingTable, EmbeddingTableSpec
from repro.dlrm.interaction import concat_interaction
from repro.dlrm.mlp import MLP


@dataclass
class DLRMModel:
    """A DLRM: its table specs, embedding tables and MLP weights.

    The model owns every value a query's scores are computed from
    (:meth:`~repro.dlrm.inference.InferenceEngine.score`).  Backends that
    place the tables in tiers (SDM) model the time and traffic of serving
    them and carry no values, so tiered and DRAM-only serving score the
    same by construction.  Sizes and structure come from the table specs;
    a random table generates its values when they are first read, so a
    run that reads no scores generates no table.
    """

    name: str
    bottom_mlp: MLP
    top_mlp: MLP
    tables: Dict[str, EmbeddingTable]
    dense_dim: int
    item_batch: int = 1

    def __post_init__(self) -> None:
        if self.dense_dim <= 0:
            raise ValueError(f"dense_dim must be positive: {self.dense_dim}")
        if self.item_batch <= 0:
            raise ValueError(f"item_batch must be positive: {self.item_batch}")
        if self.bottom_mlp.input_dim != self.dense_dim:
            raise ValueError(
                f"bottom MLP expects input {self.bottom_mlp.input_dim}, dense_dim is {self.dense_dim}"
            )
        expected_top_in = self.bottom_mlp.output_dim + sum(
            t.spec.dim for t in self.tables.values()
        )
        if self.top_mlp.input_dim != expected_top_in:
            raise ValueError(
                f"top MLP expects input {self.top_mlp.input_dim}, interaction produces {expected_top_in}"
            )

    # -------------------------------------------------------------- structure
    @property
    def user_table_specs(self) -> List[EmbeddingTableSpec]:
        return [t.spec for t in self.tables.values() if t.spec.is_user]

    @property
    def item_table_specs(self) -> List[EmbeddingTableSpec]:
        return [t.spec for t in self.tables.values() if not t.spec.is_user]

    @property
    def table_specs(self) -> List[EmbeddingTableSpec]:
        return [t.spec for t in self.tables.values()]

    @property
    def embedding_size_bytes(self) -> int:
        return sum(spec.size_bytes for spec in self.table_specs)

    def table(self, name: str) -> EmbeddingTable:
        if name not in self.tables:
            raise KeyError(f"model {self.name!r} has no table {name!r}")
        return self.tables[name]

    # --------------------------------------------------------------- forward
    def pooled_embeddings(
        self, sparse_indices: Mapping[str, Sequence[int]]
    ) -> Dict[str, np.ndarray]:
        """Pooled (summed) embedding vector per table for one sample."""
        pooled: Dict[str, np.ndarray] = {}
        for table_name, indices in sparse_indices.items():
            pooled[table_name] = self.table(table_name).bag(indices)
        return pooled

    def _dense_vector(self, dense_features: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense_features, dtype=np.float32)
        if dense.shape != (self.dense_dim,):
            raise ValueError(
                f"dense features must have shape ({self.dense_dim},), got {dense.shape}"
            )
        return dense

    def score(
        self,
        dense_features: np.ndarray,
        pooled: Mapping[str, np.ndarray],
    ) -> float:
        """Run interaction + top MLP given already-pooled embeddings.

        ``pooled`` must contain one vector per model table, keyed by name;
        vectors are interacted in the model's table order so the result does
        not depend on the mapping's iteration order.
        """
        missing = [name for name in self.tables if name not in pooled]
        if missing:
            raise KeyError(f"missing pooled embeddings for tables: {missing}")
        dense = self._dense_vector(dense_features)
        bottom_out = self.bottom_mlp.forward(dense)
        ordered = [pooled[name] for name in self.tables]
        interacted = concat_interaction(bottom_out, ordered)
        return float(self.top_mlp.forward(interacted)[0])

    def score_batch(
        self,
        dense_features: np.ndarray,
        user_pooled: Mapping[str, np.ndarray],
        item_pooled: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        """Scores of ``B`` candidates that share one user, shape ``(B,)`` float32.

        ``user_pooled`` holds one vector per table, ``item_pooled`` one
        ``(B, dim)`` matrix per table (it wins for a table in both); together
        they must cover every model table.  Element ``b`` is bit-identical to
        ``score(dense_features, {**user_pooled, table: item_pooled[table][b]})``:
        the bottom MLP runs once, the interaction rows are assembled as one
        ``(B, top_in)`` matrix, and the top MLP runs on its stacked view
        ``(B, 1, top_in)`` — one call per layer that ``@`` broadcasts into
        ``B`` independent ``(1, D) @ W`` products, the kernel ``score`` runs.
        The plain ``(B, D) @ W`` product is one GEMM that rounds differently
        and would make a score depend on its batch neighbours.
        """
        missing = [
            name for name in self.tables if name not in user_pooled and name not in item_pooled
        ]
        if missing:
            raise KeyError(f"missing pooled embeddings for tables: {missing}")
        dense = self._dense_vector(dense_features)
        batch_sizes = {len(matrix) for matrix in item_pooled.values()}
        if len(batch_sizes) != 1:
            raise ValueError(f"item tables must share one batch size, got {sorted(batch_sizes)}")
        interacted = np.empty((batch_sizes.pop(), self.top_mlp.input_dim), dtype=np.float32)
        bottom_out = self.bottom_mlp.forward(dense)
        interacted[:, : bottom_out.size] = bottom_out
        column = bottom_out.size
        for name, table in self.tables.items():
            source = item_pooled[name] if name in item_pooled else user_pooled[name]
            interacted[:, column : column + table.spec.dim] = source
            column += table.spec.dim
        return self.top_mlp.forward(interacted[:, None, :])[:, 0, 0]

    def forward(
        self,
        dense_features: np.ndarray,
        sparse_indices: Mapping[str, Sequence[int]],
    ) -> float:
        """Reference single-sample forward pass entirely from fast memory."""
        pooled = self.pooled_embeddings(sparse_indices)
        return self.score(dense_features, pooled)
