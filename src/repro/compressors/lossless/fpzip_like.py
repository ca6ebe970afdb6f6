"""fpzip stand-in: predictive lossless coding of float bit patterns.

fpzip (Lindstrom & Isenburg, TVCG 2006) predicts each value with a Lorenzo
stencil, maps floats to sign-magnitude-ordered integers so residuals are
small ints for smooth data, and entropy-codes the residuals.  We reproduce
the structure: monotonic integer mapping, last-axis Lorenzo-1 (delta)
prediction, zig-zag folding, and byte-plane DEFLATE of the residual stream
(byte planes expose the many-leading-zero structure to the entropy coder).
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.deflate import inflate
from repro.errors import DecompressionError

__all__ = ["FpzipLike"]


def _zigzag64(signed: np.ndarray) -> np.ndarray:
    """Wrap-safe zig-zag fold valid on the full int64 range."""
    s = signed.astype(np.int64)
    return ((s << 1) ^ (s >> 63)).view(np.uint64)


def _unzigzag64(folded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag64`."""
    u = folded.astype(np.uint64)
    return ((u >> np.uint64(1)).view(np.int64)) ^ (
        -(u & np.uint64(1)).view(np.int64)
    )


def _float_to_ordered_int(arr: np.ndarray) -> np.ndarray:
    """Map IEEE floats to int64 preserving numeric order (bit-exact)."""
    if arr.dtype == np.float32:
        u = arr.view(np.int32).astype(np.int64)
        sign_fix = np.where(u < 0, np.int64(-(2**31)) - u - 1, u)
        return sign_fix
    u = arr.view(np.int64)
    return np.where(u < 0, np.int64(-(2**63)) - u - 1, u)


def _ordered_int_to_float(vals: np.ndarray, dtype: np.dtype) -> np.ndarray:
    if dtype == np.float32:
        u = np.where(vals < 0, (np.int64(-(2**31)) - vals - 1), vals)
        return u.astype(np.int32).view(np.float32)
    u = np.where(vals < 0, (np.int64(-(2**63)) - vals - 1), vals)
    return u.view(np.float64)


@register_compressor
class FpzipLike(Compressor):
    """Predictive float coder: ordered-int mapping + delta + byte planes."""

    name = "fpzip"
    lossless = True

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        arr = np.ascontiguousarray(values)
        ints = _float_to_ordered_int(arr).reshape(-1)
        resid = np.empty_like(ints)
        resid[0] = ints[0]
        # int64 wraparound is well-defined for the inverse cumsum.
        with np.errstate(over="ignore"):
            resid[1:] = ints[1:] - ints[:-1]
        folded = _zigzag64(resid)
        planes = folded.view(np.uint8).reshape(-1, 8).T
        comp = zlib.compress(np.ascontiguousarray(planes).tobytes(), 6)
        return struct.pack("<QB", ints.size, arr.dtype.itemsize) + comp

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if len(payload) < 9:
            raise DecompressionError("fpzip-like frame truncated in its header")
        n, itemsize = struct.unpack_from("<QB", payload, 0)
        if n != math.prod(shape) or itemsize not in (4, 8):
            raise DecompressionError(
                f"fpzip-like frame declares {n} {itemsize}-byte elements "
                f"for shape {shape}"
            )
        raw = inflate(payload[9:], 8 * n, self.name)
        planes = np.frombuffer(raw, dtype=np.uint8).reshape(8, n)
        folded = np.ascontiguousarray(planes.T).reshape(-1).view(np.uint64)
        resid = _unzigzag64(folded)
        with np.errstate(over="ignore"):
            ints = np.cumsum(resid, dtype=np.int64)
        dtype = np.dtype(np.float32) if itemsize == 4 else np.dtype(np.float64)
        return _ordered_int_to_float(ints, dtype).reshape(shape)
