"""Tests for row-wise embedding quantisation."""

import numpy as np
import pytest

from repro.dlrm import (
    QUANT_PARAM_BYTES,
    dequantize_row,
    dequantize_rows,
    quantize_rows,
    quantized_row_bytes,
)


class TestRowBytes:
    def test_int8_row_size_matches_paper_example(self):
        # 64-element int8 row with 8 bytes of quant params is 72 bytes.
        assert quantized_row_bytes(64, bits=8) == 72

    def test_int4_packs_two_per_byte(self):
        assert quantized_row_bytes(64, bits=4) == 32 + QUANT_PARAM_BYTES

    def test_odd_dim_int4_rounds_up(self):
        assert quantized_row_bytes(7, bits=4) == 4 + QUANT_PARAM_BYTES

    def test_invalid_dim_or_bits_rejected(self):
        with pytest.raises(ValueError):
            quantized_row_bytes(0)
        with pytest.raises(ValueError):
            quantized_row_bytes(64, bits=16)


class TestQuantizeDequantize:
    def test_roundtrip_error_small_int8(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, size=(32, 64)).astype(np.float32)
        quantized = quantize_rows(values, bits=8)
        recovered = dequantize_rows(quantized, dim=64, bits=8)
        span = values.max(axis=1) - values.min(axis=1)
        max_error = np.abs(recovered - values).max(axis=1)
        assert np.all(max_error <= span / 255 + 1e-6)

    def test_roundtrip_error_int4_bounded_by_step(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, size=(16, 32)).astype(np.float32)
        quantized = quantize_rows(values, bits=4)
        recovered = dequantize_rows(quantized, dim=32, bits=4)
        span = values.max(axis=1) - values.min(axis=1)
        max_error = np.abs(recovered - values).max(axis=1)
        assert np.all(max_error <= span / 15 + 1e-6)

    def test_constant_row_recovered_exactly(self):
        values = np.full((3, 8), 2.5, dtype=np.float32)
        recovered = dequantize_rows(quantize_rows(values), dim=8)
        np.testing.assert_allclose(recovered, values, atol=1e-6)

    def test_zero_rows_recovered_exactly(self):
        values = np.zeros((2, 16), dtype=np.float32)
        recovered = dequantize_rows(quantize_rows(values), dim=16)
        np.testing.assert_array_equal(recovered, np.zeros_like(values))

    def test_row_extremes_preserved(self):
        values = np.array([[0.0, 1.0, 2.0, 4.0]], dtype=np.float32)
        recovered = dequantize_rows(quantize_rows(values), dim=4)
        assert recovered[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert recovered[0, -1] == pytest.approx(4.0, abs=1e-2)

    def test_single_row_dequantize_matches_batch(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, size=(4, 24)).astype(np.float32)
        quantized = quantize_rows(values)
        batch = dequantize_rows(quantized, dim=24)
        for row in range(4):
            single = dequantize_row(quantized[row].tobytes(), dim=24)
            np.testing.assert_allclose(single, batch[row], rtol=1e-6)

    @pytest.mark.parametrize("bits, dim", [(8, 24), (8, 1), (4, 24), (4, 7), (4, 1)])
    def test_rows_equal_single_row_bit_for_bit(self, bits, dim):
        rng = np.random.default_rng(dim)
        quantized = quantize_rows(rng.normal(0, 1, size=(9, dim)).astype(np.float32), bits=bits)
        batch = dequantize_rows(quantized, dim=dim, bits=bits)
        assert batch.dtype == np.float32 and batch.shape == (9, dim)
        assert batch.flags.c_contiguous and batch.flags.writeable
        for row in range(9):
            assert np.array_equal(batch[row], dequantize_row(quantized[row], dim=dim, bits=bits))
        # The input is only read, and may be read-only (EmbeddingTable.data is).
        before = quantized.copy()
        quantized.setflags(write=False)
        assert np.array_equal(dequantize_rows(quantized, dim=dim, bits=bits), batch)
        assert np.array_equal(quantized, before)

    def test_output_shape_and_dtype(self):
        values = np.zeros((5, 10), dtype=np.float32)
        quantized = quantize_rows(values)
        assert quantized.shape == (5, quantized_row_bytes(10))
        assert quantized.dtype == np.uint8

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros(10))

    def test_wrong_row_size_rejected(self):
        with pytest.raises(ValueError):
            dequantize_row(bytes(10), dim=64)
        with pytest.raises(ValueError):
            dequantize_rows(np.zeros((2, 10), dtype=np.uint8), dim=64)

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros((2, 4), dtype=np.float32), bits=2)

    def test_1d_row_array_accepted_by_dequantize_rows(self):
        values = np.ones((1, 8), dtype=np.float32)
        quantized = quantize_rows(values)
        out = dequantize_rows(quantized[0], dim=8)
        assert out.shape == (1, 8)
