"""DLRM substrate: embedding tables, quantisation, pruning, MLPs, inference.

Implements the model architecture of Naumov et al. (2019) as used by the
paper: a bottom MLP over dense features, embedding tables for categorical
features (split into *user* and *item* tables), a feature interaction, and a
top MLP producing the ranking score.  Embedding rows are row-wise quantised
(int8/int4) in the byte layout the SM tier stores, whose row sizes the
serving stack budgets and times.  Values are read only to compute scores,
and a random table generates its rows on that first read.
"""

from repro.dlrm.quantization import (
    QUANT_PARAM_BYTES,
    dequantize_row,
    dequantize_rows,
    quantize_rows,
    quantized_row_bytes,
)
from repro.dlrm.embedding import Bags, EmbeddingTable, EmbeddingTableSpec, pool_bags
from repro.dlrm.pruning import PrunedEmbeddingTable, prune_table
from repro.dlrm.mlp import MLP
from repro.dlrm.interaction import concat_interaction
from repro.dlrm.model import DLRMModel
from repro.dlrm.model_config import (
    M1_SPEC,
    M2_SPEC,
    M3_SPEC,
    ModelSpec,
    TableProfile,
    build_scaled_model,
    figure1_model_spec,
)
from repro.dlrm.inference import (
    ComputeSpec,
    EmbeddingBackend,
    InMemoryBackend,
    InferenceEngine,
    Query,
    QueryResult,
)

__all__ = [
    "QUANT_PARAM_BYTES",
    "quantize_rows",
    "dequantize_row",
    "dequantize_rows",
    "quantized_row_bytes",
    "Bags",
    "EmbeddingTable",
    "EmbeddingTableSpec",
    "pool_bags",
    "PrunedEmbeddingTable",
    "prune_table",
    "MLP",
    "concat_interaction",
    "DLRMModel",
    "ModelSpec",
    "TableProfile",
    "M1_SPEC",
    "M2_SPEC",
    "M3_SPEC",
    "build_scaled_model",
    "figure1_model_spec",
    "ComputeSpec",
    "EmbeddingBackend",
    "InMemoryBackend",
    "InferenceEngine",
    "Query",
    "QueryResult",
]
