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

from repro.compressors.base import Compressor, by_group, register_compressor
from repro.compressors.blocks import join_rows
from repro.compressors.deflate import pack_chunk, unpack_chunk
from repro.compressors.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_max_bytes,
)
from repro.compressors.interpolation import (
    anchor_count,
    interp_decode_many,
    interp_encode_many,
    num_passes,
)
from repro.errors import DecompressionError

__all__ = ["SZ3"]


@register_compressor
class SZ3(Compressor):
    """Interpolation-predictor EBLC; highest CR of the suite at loose bounds.

    A batch's equal-shaped pieces share one interpolation sweep; Huffman,
    DEFLATE and the framing run per piece.
    """

    name = "sz3"

    def _level_bound(self, abs_bound: float):
        """SZ3 uses the uniform bound at every level (QoZ overrides this)."""
        return None

    def _params(self) -> bytes:
        """Codec parameters stored ahead of the payload (QoZ's alpha/beta)."""
        return b""

    def _read_params(self, payload: bytes, abs_bound: float):
        """``(body, level_bound)`` of a payload: the stored parameters
        stripped and turned into the level bound they decode with."""
        return payload, None

    def _compress_batch(self, values: list, abs_bounds: list) -> list[bytes]:
        return by_group(
            [v.shape for v in values], self._compress_group, values, abs_bounds
        )

    def _compress_group(self, values: list, abs_bounds: list) -> list[bytes]:
        """The payloads of equal-shaped pieces, from one sweep."""
        stack = join_rows([v[None] for v in values])
        anchors, modes, codes, outliers, _ = interp_encode_many(
            stack, abs_bounds, [self._level_bound(b) for b in abs_bounds]
        )
        head = self._params() + struct.pack("<II", modes.shape[1], anchors.shape[1])
        return [
            b"".join([
                head,
                np.packbits(modes[i].astype(np.uint8)).tobytes(),
                pack_chunk(anchors[i].tobytes()),
                pack_chunk(outliers[i].astype(np.float64).tobytes()),
                pack_chunk(huffman_encode(codes[i])),
            ])
            for i in range(len(values))
        ]

    def _decompress_batch(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        pieces = [
            self._read_payload(p, s, b)
            for p, s, b in zip(payloads, shapes, abs_bounds)
        ]
        return by_group(shapes, _decode_group, shapes, abs_bounds, pieces)

    def _read_payload(self, payload: bytes, shape: tuple[int, ...], abs_bound: float):
        """Parse and check one payload: ``(anchors, modes, codes, outliers,
        level_bound)``."""
        payload, level_bound = self._read_params(payload, abs_bound)
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
        modes = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=n_mode_bytes, offset=off)
        )[:n_modes]
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
        return anchors, modes, codes, outliers, level_bound


def _decode_group(shapes: list, abs_bounds: list, pieces: list) -> list[np.ndarray]:
    """Reconstruct equal-shaped pieces in one sweep."""
    anchors, modes, codes, outliers, level_bounds = zip(*pieces)
    anchors, modes, codes = (
        join_rows([row[None] for row in part]) for part in (anchors, modes, codes)
    )
    recon = interp_decode_many(
        shapes[0], abs_bounds, anchors, modes, codes, outliers, level_bounds
    )
    return list(recon)
