"""FPC: leading-zero-elimination float compressor (Burtscher 2009).

FPC XORs each value with a prediction and stores only the non-zero low bytes
of the XOR plus a 3-bit leading-zero-byte count.  The reference uses FCM and
DFCM hash predictors; those are inherently sequential, so this reproduction
uses the previous-value predictor (FCM's strongest entry for smooth streams),
which keeps both directions fully vectorized — decode is an XOR prefix scan
(``np.bitwise_xor.accumulate``).  The simplification is documented in
DESIGN.md; the ratio behaviour on smooth scientific data (1.1–1.6×) matches
the regime Figure 1 reports for lossless floats.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.bitstream import pack_bits, unpack_bits
from repro.errors import DecompressionError

__all__ = ["FPC"]


@register_compressor
class FPC(Compressor):
    """XOR-predictive lossless codec with leading-zero-byte elimination."""

    name = "fpc"
    lossless = True

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        arr = np.ascontiguousarray(values)
        itemsize = arr.dtype.itemsize
        if itemsize == 4:
            bits = arr.view(np.uint32).astype(np.uint64)
            width_field = 3  # leading-zero bytes in [0, 4]
        else:
            bits = arr.view(np.uint64)
            width_field = 4  # leading-zero bytes in [0, 8]
        flat = bits.reshape(-1)
        xored = np.empty_like(flat)
        xored[0] = flat[0]
        xored[1:] = flat[1:] ^ flat[:-1]

        # Leading-zero byte count of each XOR value (from the top of itemsize).
        lzb = np.zeros(flat.size, dtype=np.int64)
        remaining = xored.copy()
        for b in range(itemsize):
            top_shift = np.uint64(8 * (itemsize - 1 - b))
            top_byte = (xored >> top_shift) & np.uint64(0xFF)
            still_zero = lzb == b
            lzb = np.where(still_zero & (top_byte == 0), b + 1, lzb)
        del remaining
        body_bytes = itemsize - lzb
        # The LZB counts travel in their own fixed-width stream (below); the
        # packed payload holds only the surviving low bytes of each XOR.
        widths = 8 * body_bytes
        mask = np.where(
            body_bytes == itemsize,
            np.uint64(0xFFFFFFFFFFFFFFFF) if itemsize == 8 else np.uint64(0xFFFFFFFF),
            (np.uint64(1) << (np.uint64(8) * body_bytes.astype(np.uint64)))
            - np.uint64(1),
        )
        packed = pack_bits(xored & mask, widths)
        head = struct.pack("<QB", flat.size, itemsize)
        lzb_bytes = np.packbits(
            ((lzb[:, None] >> np.arange(width_field - 1, -1, -1)) & 1).astype(
                np.uint8
            ).reshape(-1)
        ).tobytes()
        return head + struct.pack("<Q", len(lzb_bytes)) + lzb_bytes + packed

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if len(payload) < 17:
            raise DecompressionError("fpc frame truncated in its header")
        n, itemsize = struct.unpack_from("<QB", payload, 0)
        (lzb_len,) = struct.unpack_from("<Q", payload, 9)
        off = 17
        width_field = 3 if itemsize == 4 else 4
        if n != math.prod(shape) or itemsize not in (4, 8):
            raise DecompressionError(
                f"fpc frame declares {n} {itemsize}-byte elements for shape {shape}"
            )
        if lzb_len != -(-n * width_field // 8) or len(payload) < off + lzb_len:
            raise DecompressionError(
                f"fpc frame declares {lzb_len} leading-zero bytes for {n} "
                f"elements in a {len(payload)}-byte payload"
            )
        lzb_bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=lzb_len, offset=off)
        )[: n * width_field].reshape(n, width_field)
        shifts = np.arange(width_field - 1, -1, -1)
        lzb = (lzb_bits.astype(np.int64) << shifts).sum(axis=1)
        off += lzb_len
        if (lzb > itemsize).any():
            raise DecompressionError("fpc leading-zero count exceeds the element size")
        body_bytes = itemsize - lzb
        widths = 8 * body_bytes
        xored = unpack_bits(payload[off:], widths)
        flat = np.bitwise_xor.accumulate(xored)
        if itemsize == 4:
            out = flat.astype(np.uint32).view(np.float32)
        else:
            out = flat.view(np.float64)
        return out.reshape(shape)
