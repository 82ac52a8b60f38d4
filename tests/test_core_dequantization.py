"""Tests for de-quantisation at load time (appendix A.5)."""

import numpy as np
import pytest

from repro.core import DequantizedTable, dequantize_table
from repro.dlrm import EmbeddingTable, EmbeddingTableSpec


def _table(dim=16, num_rows=32):
    spec = EmbeddingTableSpec(
        name="t", num_rows=num_rows, dim=dim, is_user=True, avg_pooling_factor=4.0
    )
    return EmbeddingTable.random(spec, seed=0)


class TestDequantizeTable:
    def test_values_match_runtime_dequantisation(self):
        table = _table()
        result = dequantize_table(table)
        np.testing.assert_allclose(
            result.table.data, table.lookup_dense(range(table.spec.num_rows))
        )

    def test_row_bytes_are_float32(self):
        table = _table(dim=16)
        result = dequantize_table(table)
        assert result.table.row_bytes == 64

    def test_sm_footprint_grows(self):
        table = _table(dim=64)
        result = dequantize_table(table)
        # 72B quantised -> 256B float32: ~3.6x growth.
        assert result.sm_growth_factor == pytest.approx(256 / 72, rel=1e-6)
        assert result.sm_bytes_after > result.sm_bytes_before

    def test_cache_efficiency_loss_reported(self):
        result = dequantize_table(_table(dim=64))
        assert 0.0 < result.cache_efficiency_loss < 1.0
        # fewer rows fit per MiB after expansion
        assert result.cache_rows_per_mib_after < result.cache_rows_per_mib_before

    def test_decode_row_roundtrip(self):
        # A row expanded at load is the float32 dequantisation of the row.
        table = _table(dim=8)
        result = dequantize_table(table)
        assert result.table.data.dtype == np.float32
        np.testing.assert_array_equal(result.table.data[3], table.lookup_dense([3])[0])

    def test_shape_validation(self):
        table = _table()
        with pytest.raises(ValueError):
            DequantizedTable(spec=table.spec, data=np.zeros((1, 1), dtype=np.float32))

    def test_size_bytes(self):
        table = _table(dim=16, num_rows=10)
        result = dequantize_table(table)
        assert result.table.size_bytes == 10 * 64
