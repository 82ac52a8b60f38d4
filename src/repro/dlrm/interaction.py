"""Feature interaction between the dense projection and pooled embeddings."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def concat_interaction(dense: np.ndarray, pooled_embeddings: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate the dense vector with all pooled embedding vectors."""
    dense = np.asarray(dense, dtype=np.float32)
    if dense.ndim != 1:
        raise ValueError(f"dense vector must be 1-D, got shape {dense.shape}")
    parts = [dense] + [np.asarray(vec, dtype=np.float32).reshape(-1) for vec in pooled_embeddings]
    return np.concatenate(parts)
