"""C-Blosc2 stand-in: byte-shuffle filter + blocked DEFLATE.

Blosc's ratio advantage on floats comes from its shuffle filter (grouping
the i-th byte of every element so slowly-varying exponent bytes become long
runs) and cache-sized blocking.  Both are reproduced; DEFLATE replaces the
internal codec.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.deflate import inflate
from repro.errors import DecompressionError

__all__ = ["BloscLike"]

_BLOCK_BYTES = 1 << 18  # 256 KiB blocks, Blosc's default neighbourhood


@register_compressor
class BloscLike(Compressor):
    """Shuffle + blocked DEFLATE lossless codec."""

    name = "blosc"
    lossless = True

    def __init__(self, level: int = 5):
        self.level = int(level)

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        arr = np.ascontiguousarray(values)
        itemsize = arr.dtype.itemsize
        raw = arr.view(np.uint8).reshape(-1, itemsize)
        # Shuffle: transpose so byte-plane i of all elements is contiguous.
        shuffled = np.ascontiguousarray(raw.T).tobytes()
        chunks = [
            zlib.compress(shuffled[i : i + _BLOCK_BYTES], self.level)
            for i in range(0, len(shuffled), _BLOCK_BYTES)
        ]
        head = struct.pack("<QBI", len(shuffled), itemsize, len(chunks))
        body = b"".join(struct.pack("<I", len(c)) + c for c in chunks)
        return head + body

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if len(payload) < 13:
            raise DecompressionError("blosc-like frame truncated in its header")
        total, itemsize, n_chunks = struct.unpack_from("<QBI", payload, 0)
        n = math.prod(shape)
        if itemsize not in (4, 8) or total != n * itemsize:
            raise DecompressionError(
                f"blosc-like frame declares {total} bytes of {itemsize}-byte "
                f"elements for {n} elements"
            )
        if n_chunks != -(-total // _BLOCK_BYTES):
            raise DecompressionError(
                f"blosc-like frame declares {n_chunks} blocks for {total} bytes"
            )
        off = 13
        parts = []
        for start in range(0, total, _BLOCK_BYTES):
            if len(payload) < off + 4:
                raise DecompressionError("blosc-like frame truncated in a block header")
            (clen,) = struct.unpack_from("<I", payload, off)
            off += 4
            block = min(_BLOCK_BYTES, total - start)
            parts.append(inflate(payload[off : off + clen], block, self.name))
            off += clen
        shuffled = b"".join(parts)
        planes = np.frombuffer(shuffled, dtype=np.uint8).reshape(itemsize, n)
        raw = np.ascontiguousarray(planes.T).reshape(-1)
        dtype = np.float32 if itemsize == 4 else np.float64
        return raw.view(dtype).reshape(shape)
