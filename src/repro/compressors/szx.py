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

from repro.compressors.base import (
    Compressor,
    piece_bounds,
    register_compressor,
    take_bounds,
)
from repro.compressors.bitstream import bit_length, pack_bits, unpack_bits
from repro.compressors.blocks import join_rows, split_rows
from repro.errors import CompressionError, DecompressionError

__all__ = ["SZx", "BLOCK_ELEMS"]

#: Elements per SZx block (matches the reference implementation default).
BLOCK_ELEMS = 128


@register_compressor
class SZx(Compressor):
    """Constant-block + fixed-width offset coding; fastest, lowest ratio.

    A batch's pieces share every block pass: each piece is padded to whole
    blocks on its own, the blocks are stacked, and each block is coded under
    its piece's bound.  A block's codes take ``128 * width`` bits, a whole
    number of bytes, so one bit packing serves every piece.
    """

    name = "szx"

    def _compress_batch(self, values: list, abs_bounds: list) -> list[bytes]:
        blocks, counts = _stack_blocks(values)
        n_blocks = blocks.shape[0]
        bound = piece_bounds(abs_bounds, counts)

        vmin = blocks.min(axis=1)
        vmax = blocks.max(axis=1)
        center = 0.5 * (vmin + vmax)
        radius = 0.5 * (vmax - vmin)
        const_mask = radius <= bound

        nc_idx = np.flatnonzero(~const_mask)
        widths_per_block = np.zeros(n_blocks, dtype=np.int64)
        packed = b""
        if nc_idx.size:
            width = 2.0 * take_bounds(bound, nc_idx, (1,))
            k = np.rint((blocks[nc_idx] - center[nc_idx, None]) / width)
            if max(k.max(), -k.min()) >= 2.0**63:
                big = np.maximum(k.max(axis=1), -k.min(axis=1)) >= 2.0**63
                piece = np.searchsorted(np.cumsum(counts), nc_idx[big][0], "right")
                raise CompressionError(
                    f"szx: a block's quantization codes need more than 64 bits "
                    f"at absolute bound {abs_bounds[piece]!r}"
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
            packed = pack_bits(stored.reshape(-1), np.repeat(m, BLOCK_ELEMS))

        payloads = []
        first = code_at = 0
        for value, n in zip(values, counts):
            s = slice(first, first + n)
            first += n
            flags = const_mask[s]
            n_codes = BLOCK_ELEMS // 8 * int(widths_per_block[s].sum())
            payloads.append(b"".join([
                struct.pack("<QQQ", value.size, n, n_codes),
                np.packbits(flags.astype(np.uint8)).tobytes(),
                widths_per_block[s][~flags].astype(np.uint8).tobytes(),
                center[s].astype(np.float64).tobytes(),
                packed[code_at : code_at + n_codes],
            ]))
            code_at += n_codes
        return payloads

    def _decompress_batch(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        layouts = [_read_payload(p, s) for p, s in zip(payloads, shapes)]
        counts = [layout[1].size for layout in layouts]
        starts = np.cumsum([0] + counts[:-1])
        nc_idx = join_rows([layout[0] + first for layout, first in zip(layouts, starts)])
        center, m = (join_rows([layout[i] for layout in layouts]) for i in (1, 2))
        codes_raw = b"".join(layout[3] for layout in layouts)

        out = np.repeat(center[:, None], BLOCK_ELEMS, axis=1)
        if nc_idx.size:
            elem_widths = np.repeat(m, BLOCK_ELEMS)
            stored = unpack_bits(codes_raw, elem_widths).reshape(-1, BLOCK_ELEMS)
            offset = (np.uint64(1) << (m - 1).astype(np.uint64))[:, None]
            k = (stored - offset).view(np.int64)
            width = 2.0 * take_bounds(piece_bounds(abs_bounds, counts), nc_idx, (1,))
            out[nc_idx] = center[nc_idx, None] + k.astype(np.float64) * width
        return [
            piece.reshape(-1)[: math.prod(shape)].reshape(shape)
            for piece, shape in zip(split_rows(out, counts), shapes)
        ]


def _stack_blocks(values: list) -> tuple[np.ndarray, list[int]]:
    """Every piece flattened, padded to whole blocks with its own last
    value, and stacked: ``(blocks, per-piece block counts)``."""
    counts = [-(-v.size // BLOCK_ELEMS) for v in values]
    padded = np.empty(sum(counts) * BLOCK_ELEMS, dtype=np.float64)
    at = 0
    for v, n in zip(values, counts):
        flat = v.reshape(-1)
        padded[at : at + flat.size] = flat
        padded[at + flat.size : at + n * BLOCK_ELEMS] = flat[-1]
        at += n * BLOCK_ELEMS
    return padded.reshape(-1, BLOCK_ELEMS), counts


def _read_payload(payload: bytes, shape: tuple[int, ...]):
    """Parse and check one payload: ``(non-constant block indices, block
    centres, their bit widths, code bytes)``."""
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
    return nc_idx, center, m, payload[off + 8 * n_blocks :]
