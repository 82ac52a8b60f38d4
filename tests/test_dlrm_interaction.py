"""Tests for feature interaction."""

import numpy as np
import pytest

from repro.dlrm import concat_interaction


class TestConcatInteraction:
    def test_concatenates_in_order(self):
        dense = np.array([1.0, 2.0], dtype=np.float32)
        pooled = [np.array([3.0], dtype=np.float32), np.array([4.0, 5.0], dtype=np.float32)]
        np.testing.assert_array_equal(
            concat_interaction(dense, pooled), np.array([1, 2, 3, 4, 5], dtype=np.float32)
        )

    def test_handles_no_embeddings(self):
        dense = np.array([1.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(concat_interaction(dense, []), dense)

    def test_rejects_matrix_dense(self):
        with pytest.raises(ValueError):
            concat_interaction(np.zeros((2, 2)), [])

