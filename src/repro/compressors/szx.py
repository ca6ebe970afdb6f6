"""SZx: ultra-fast error-bounded compressor (Yu et al., HPDC '22).

SZx trades ratio for speed using only lightweight block operations:

1. the flattened array is cut into fixed 128-element blocks;
2. a block whose value radius fits inside the error bound becomes a
   **constant block** (one stored centre value);
3. other blocks store, per element, a fixed-width quantization index of the
   offset from the block centre — the width is the fewest bits that cover
   the block's radius at the requested bound (SZx's "required bit count").

No prediction, no entropy coding: every stage is a single vectorized pass,
mirroring why the real SZx is an order of magnitude faster than SZ2/SZ3 at
the cost of lower ratios (paper Table III / Fig. 8).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.bitstream import bit_length, pack_bits, unpack_bits
from repro.errors import CompressionError, DecompressionError

__all__ = ["SZx", "BLOCK_ELEMS"]

#: Elements per SZx block (matches the reference implementation default).
BLOCK_ELEMS = 128


@register_compressor
class SZx(Compressor):
    """Constant-block + fixed-width offset coding; fastest, lowest ratio."""

    name = "szx"

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        flat = values.reshape(-1)
        n = flat.size
        n_blocks = -(-n // BLOCK_ELEMS)
        padded = np.empty(n_blocks * BLOCK_ELEMS, dtype=np.float64)
        padded[:n] = flat
        if padded.size > n:
            padded[n:] = flat[-1]
        blocks = padded.reshape(n_blocks, BLOCK_ELEMS)

        vmin = blocks.min(axis=1)
        vmax = blocks.max(axis=1)
        center = 0.5 * (vmin + vmax)
        radius = 0.5 * (vmax - vmin)
        const_mask = radius <= abs_bound

        nc_idx = np.flatnonzero(~const_mask)
        widths_per_block = np.zeros(n_blocks, dtype=np.int64)
        payload_codes = b""
        if nc_idx.size:
            width = 2.0 * abs_bound
            k = np.rint((blocks[nc_idx] - center[nc_idx, None]) / width)
            if max(k.max(), -k.min()) >= 2.0**63:
                raise CompressionError(
                    f"szx: a block's quantization codes need more than 64 bits "
                    f"at absolute bound {abs_bound!r}"
                )
            k = k.astype(np.int64)
            # Sign + magnitude bits: the exact bit length of the largest
            # offset (a float log2 rounds 2**j + 1 down to j past j = 48),
            # plus one, so kmax == 0 still takes 1 bit.
            m = bit_length(np.abs(k).max(axis=1).astype(np.uint64)) + 1
            widths_per_block[nc_idx] = m
            offset = (np.uint64(1) << (m - 1).astype(np.uint64))[:, None]
            # uint64 arithmetic wraps mod 2**64, so the 64-bit width agrees
            # with the decoder's inverse below.
            stored = k.astype(np.uint64) + offset
            elem_widths = np.repeat(m, BLOCK_ELEMS)
            payload_codes = pack_bits(stored.reshape(-1), elem_widths)

        flags = np.packbits(const_mask.astype(np.uint8)).tobytes()
        header = struct.pack("<QQQ", n, n_blocks, len(payload_codes))
        parts = [
            header,
            flags,
            widths_per_block[nc_idx].astype(np.uint8).tobytes(),
            center.astype(np.float64).tobytes(),
            payload_codes,
        ]
        return b"".join(parts)

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        # Every count the payload declares is checked against the stream
        # shape and the payload length before anything is sized from it.
        if len(payload) < 24:
            raise DecompressionError("truncated szx payload header")
        n, n_blocks, code_len = struct.unpack_from("<QQQ", payload, 0)
        if n != math.prod(shape) or n_blocks != -(-n // BLOCK_ELEMS):
            raise DecompressionError(
                f"szx payload declares {n} elements in {n_blocks} blocks; "
                f"the stream shape {shape} holds {math.prod(shape)}"
            )
        n_flag_bytes = -(-n_blocks // 8)
        off = 24 + n_flag_bytes
        if len(payload) < off + 8 * n_blocks:
            raise DecompressionError("truncated szx block table")
        flags = np.frombuffer(payload, dtype=np.uint8, count=n_flag_bytes, offset=24)
        nc_idx = np.flatnonzero(np.unpackbits(flags)[:n_blocks] == 0)
        expected = off + nc_idx.size + 8 * n_blocks + code_len
        if len(payload) != expected:
            raise DecompressionError(
                f"szx payload holds {len(payload)} bytes; its header declares "
                f"{expected}"
            )
        m = np.frombuffer(payload, dtype=np.uint8, count=nc_idx.size, offset=off)
        m = m.astype(np.int64)
        off += nc_idx.size
        if m.size and (m.min() < 1 or m.max() > 64):
            raise DecompressionError("szx bit widths must be in 1..64")
        code_bytes = BLOCK_ELEMS * int(m.sum()) // 8
        if code_len != code_bytes:
            raise DecompressionError(
                f"szx code chunk holds {code_len} bytes; the block bit widths "
                f"need {code_bytes}"
            )
        center = np.frombuffer(payload, dtype=np.float64, count=n_blocks, offset=off)
        codes_raw = payload[off + 8 * n_blocks :]

        out = np.repeat(center[:, None], BLOCK_ELEMS, axis=1)
        if nc_idx.size:
            elem_widths = np.repeat(m, BLOCK_ELEMS)
            stored = unpack_bits(codes_raw, elem_widths).reshape(-1, BLOCK_ELEMS)
            offset = (np.uint64(1) << (m - 1).astype(np.uint64))[:, None]
            k = (stored - offset).view(np.int64)
            width = 2.0 * abs_bound
            out[nc_idx] = center[nc_idx, None] + k.astype(np.float64) * width
        return out.reshape(-1)[:n].reshape(shape)
