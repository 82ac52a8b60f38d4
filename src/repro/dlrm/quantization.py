"""Row-wise quantisation of embedding tables.

Inference embedding tables are served row-wise quantised (Guan et al., 2019):
each row stores a float32 scale and bias followed by int8 (or packed int4)
codes.  A 64-element int8 row therefore occupies 64 + 8 = 72 bytes, matching
the sizes the paper quotes.  This module converts between float rows and the
serialized byte layout used both in fast memory and on the SM tier.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bytes of quantisation parameters (float32 scale + float32 bias) per row.
QUANT_PARAM_BYTES = 8

SUPPORTED_BITS = (4, 8)


def quantized_row_bytes(dim: int, bits: int = 8) -> int:
    """Serialized size in bytes of one quantised row of ``dim`` elements."""
    if dim <= 0:
        raise ValueError(f"dim must be positive: {dim}")
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}: {bits}")
    if bits == 8:
        payload = dim
    else:
        payload = -(-dim // 2)  # two int4 codes per byte
    return payload + QUANT_PARAM_BYTES


def _quantize_matrix(values: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (codes, scales, biases) for a 2-D float matrix."""
    levels = (1 << bits) - 1
    row_min = values.min(axis=1)
    row_max = values.max(axis=1)
    span = row_max - row_min
    # Constant rows quantise to code 0 with scale 0 and bias == the constant.
    scale = np.where(span > 0, span / levels, 0.0).astype(np.float32)
    bias = row_min.astype(np.float32)
    safe_scale = np.where(scale > 0, scale, 1.0)
    codes = np.rint((values - bias[:, None]) / safe_scale[:, None])
    codes = np.clip(codes, 0, levels).astype(np.uint8)
    return codes, scale, bias


def quantize_rows(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Quantise a float matrix row-wise into the serialized byte layout.

    Parameters
    ----------
    values:
        ``(num_rows, dim)`` float array.
    bits:
        4 or 8.

    Returns
    -------
    ``(num_rows, quantized_row_bytes(dim, bits))`` uint8 array.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}: {bits}")
    num_rows, dim = values.shape
    codes, scale, bias = _quantize_matrix(values, bits)

    if bits == 4:
        if dim % 2 == 1:
            codes = np.concatenate(
                [codes, np.zeros((num_rows, 1), dtype=np.uint8)], axis=1
            )
        low = codes[:, 0::2]
        high = codes[:, 1::2]
        payload = (low | (high << 4)).astype(np.uint8)
    else:
        payload = codes

    out = np.empty((num_rows, quantized_row_bytes(dim, bits)), dtype=np.uint8)
    out[:, :4] = scale.view(np.uint8).reshape(num_rows, 4)
    out[:, 4:8] = bias.view(np.uint8).reshape(num_rows, 4)
    out[:, 8:] = payload
    return out


def dequantize_row(row_bytes: bytes | np.ndarray, dim: int, bits: int = 8) -> np.ndarray:
    """Dequantise one serialized row back to a float32 vector of ``dim``."""
    raw = np.frombuffer(bytes(row_bytes), dtype=np.uint8)
    expected = quantized_row_bytes(dim, bits)
    if raw.size != expected:
        raise ValueError(
            f"row has {raw.size} bytes but a {dim}-dim {bits}-bit row needs {expected}"
        )
    scale = raw[:4].view(np.float32)[0]
    bias = raw[4:8].view(np.float32)[0]
    payload = raw[8:]
    if bits == 8:
        codes = payload[:dim].astype(np.float32)
    else:
        low = (payload & 0x0F).astype(np.float32)
        high = ((payload >> 4) & 0x0F).astype(np.float32)
        codes = np.empty(payload.size * 2, dtype=np.float32)
        codes[0::2] = low
        codes[1::2] = high
        codes = codes[:dim]
    return codes * float(scale) + float(bias)


def dequantize_rows(rows: np.ndarray, dim: int, bits: int = 8) -> np.ndarray:
    """Dequantise a ``(num_rows, row_bytes)`` uint8 array to ``(num_rows, dim)`` float32.

    Row ``r`` is bit-identical to ``dequantize_row(rows[r], dim, bits)``: the
    codes are widened to float32 once, then scaled and biased in place —
    the same two float operations per element, without a temporary for
    either.  The result is a fresh C-contiguous array the caller owns.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim == 1:
        rows = rows[None, :]
    expected = quantized_row_bytes(dim, bits)
    if rows.shape[1] != expected:
        raise ValueError(
            f"rows have {rows.shape[1]} bytes but a {dim}-dim {bits}-bit row needs {expected}"
        )
    # One 8-byte copy per row makes the header viewable as (scale, bias).
    header = rows[:, :QUANT_PARAM_BYTES].copy().view(np.float32)
    payload = rows[:, QUANT_PARAM_BYTES:]
    if bits == 8:
        codes = payload.astype(np.float32)
    else:
        codes = np.empty((rows.shape[0], dim), dtype=np.float32)
        codes[:, 0::2] = payload & 0x0F
        codes[:, 1::2] = (payload >> 4)[:, : dim // 2]
    codes *= header[:, :1]
    codes += header[:, 1:]
    return codes
