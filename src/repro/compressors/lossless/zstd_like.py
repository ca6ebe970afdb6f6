"""Zstd stand-in: framed DEFLATE over the raw float bytes.

Zstandard itself is unavailable offline; DEFLATE at a moderate level has the
same *qualitative* behaviour on floating-point scientific data — single-digit
ratios driven by repeated byte patterns, insensitive to the error-bound axis —
which is all Figure 1 asks of it.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.deflate import inflate
from repro.errors import DecompressionError

__all__ = ["ZstdLike"]


@register_compressor
class ZstdLike(Compressor):
    """General-purpose lossless codec (LZ77 + Huffman via zlib)."""

    name = "zstd"
    lossless = True

    def __init__(self, level: int = 3):
        if not 1 <= level <= 9:
            raise ValueError("zlib level must be in [1, 9]")
        self.level = level

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        raw = np.ascontiguousarray(values).tobytes()
        comp = zlib.compress(raw, self.level)
        return struct.pack("<Q", len(raw)) + comp

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if len(payload) < 8:
            raise DecompressionError("zstd-like frame truncated in its header")
        (rlen,) = struct.unpack_from("<Q", payload, 0)
        n = math.prod(shape)
        if rlen not in (4 * n, 8 * n):
            raise DecompressionError(
                f"zstd-like frame declares {rlen} bytes for {n} elements"
            )
        raw = inflate(payload[8:], rlen, self.name)
        dtype = np.float32 if rlen == 4 * n else np.float64
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
