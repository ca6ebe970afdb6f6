"""SZ3: interpolation-based EBLC (Liang et al., IEEE TBD 2023).

SZ3 replaces SZ2's block regression with multilevel dynamic spline
interpolation (see :mod:`repro.compressors.interpolation`), which needs no
stored coefficients and wins at loose-to-moderate error bounds.  The encoded
stream is: exact anchors, per-pass interpolator choice bits, Huffman-coded
quantization symbols, DEFLATE-compressed, plus the escape pool.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.deflate import pack_chunk, unpack_chunk
from repro.compressors.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_max_bytes,
)
from repro.compressors.interpolation import (
    anchor_count,
    interp_decode,
    interp_encode,
    num_passes,
)
from repro.errors import DecompressionError

__all__ = ["SZ3"]


@register_compressor
class SZ3(Compressor):
    """Interpolation-predictor EBLC; highest CR of the suite at loose bounds."""

    name = "sz3"

    def _level_bound(self, abs_bound: float):
        """SZ3 uses the uniform bound at every level (QoZ overrides this)."""
        return None

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        anchors, modes, codes, outliers, _ = interp_encode(
            values, abs_bound, self._level_bound(abs_bound)
        )
        mode_bytes = np.packbits(np.asarray(modes, dtype=np.uint8)).tobytes()
        parts = [
            struct.pack("<II", len(modes), anchors.size),
            mode_bytes,
            pack_chunk(anchors.astype(np.float64).tobytes()),
            pack_chunk(outliers.astype(np.float64).tobytes()),
            pack_chunk(huffman_encode(codes)),
        ]
        return b"".join(parts)

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if not shape:
            raise DecompressionError("sz3 cannot decode a rank-0 shape")
        if len(payload) < 8:
            raise DecompressionError("sz3 stream truncated in payload header")
        # Every count in the header is checked against the stream's shape
        # before anything is sized from it.
        n_modes, n_anchor = struct.unpack_from("<II", payload, 0)
        n_passes = num_passes(shape)
        if n_modes != n_passes:
            raise DecompressionError(
                f"sz3 stream declares {n_modes} passes; shape {shape} has {n_passes}"
            )
        if n_anchor != (expected := anchor_count(shape)):
            raise DecompressionError(
                f"sz3 stream declares {n_anchor} anchors; shape {shape} has {expected}"
            )
        n_codes = math.prod(shape) - n_anchor
        off = 8
        n_mode_bytes = -(-n_modes // 8)
        if len(payload) < off + n_mode_bytes:
            raise DecompressionError("sz3 stream truncated in level modes")
        modes = (
            np.unpackbits(
                np.frombuffer(payload, dtype=np.uint8, count=n_mode_bytes, offset=off)
            )[:n_modes]
            .astype(int)
            .tolist()
        )
        off += n_mode_bytes
        anchor_raw, off = unpack_chunk(payload, off, "sz3", 8 * n_anchor)
        outlier_raw, off = unpack_chunk(payload, off, "sz3", max_len=8 * n_codes)
        huff_raw, off = unpack_chunk(
            payload, off, "sz3", max_len=huffman_max_bytes(n_codes)
        )
        if len(outlier_raw) % 8:
            raise DecompressionError("sz3 outlier pool is not whole float64 values")
        anchors = np.frombuffer(anchor_raw, dtype=np.float64)
        outliers = np.frombuffer(outlier_raw, dtype=np.float64)
        codes = huffman_decode(huff_raw, n_codes)
        if int(np.count_nonzero(codes == 0)) != outliers.size:
            raise DecompressionError("sz3 outlier pool size mismatch")
        return interp_decode(
            shape,
            abs_bound,
            anchors,
            modes,
            codes,
            outliers,
            self._level_bound(abs_bound),
        )
