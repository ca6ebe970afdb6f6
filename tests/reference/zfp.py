"""The per-block, per-bitplane ZFP coder over a sequential bit stream.

:class:`ReferenceZFP` is the scalar group-testing coder the block-parallel
:class:`~repro.compressors.zfp.ZFP` replaced.  The byte-identity battery in
``test_zfp_coder`` requires both to write the same streams and decode them to
the same arrays.  :class:`BitWriter` / :class:`BitReader` are the MSB-first
bit I/O it runs on, trimmed to the calls the coder makes; raw-escape blocks
go through them as 64-bit fields one at a time.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.blocks import blockify, unblockify
from repro.compressors.transform import (
    forward_transform,
    int_to_negabinary,
    inverse_transform,
    negabinary_to_int,
    sequency_order,
)
from repro.compressors.zfp import (
    _E_BIAS,
    _E_BITS,
    _K_BITS,
    PRECISION,
    ZFP,
    _block_for_shape,
    _kmin_for,
    _needs_raw_escape,
)
from repro.errors import DecompressionError


class BitWriter:
    """Sequential MSB-first bit writer, flushed to bytes 8 bits at a time."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0  # pending bits, fewer than 8 after each write
        self.nacc = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``, MSB-first."""
        self.acc = (self.acc << width) | (value & ((1 << width) - 1))
        self.nacc += width
        while self.nacc >= 8:
            self.nacc -= 8
            self.buf.append((self.acc >> self.nacc) & 0xFF)
        self.acc &= (1 << self.nacc) - 1

    def getvalue(self) -> bytes:
        """The stream, padded with zero bits to a byte boundary."""
        tail = bytes([self.acc << (8 - self.nacc)]) if self.nacc else b""
        return bytes(self.buf) + tail


class BitReader:
    """Sequential MSB-first bit reader; ``pos`` is the absolute bit offset."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.size = 8 * len(data)
        self.pos = 0

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits MSB-first; raises at the end of the stream."""
        end = self.pos + width
        if end > self.size:
            raise DecompressionError("bit stream exhausted")
        first, last = self.pos >> 3, (end + 7) >> 3
        window = int.from_bytes(self.data[first:last], "big")
        self.pos = end
        return (window >> (8 * last - end)) & ((1 << width) - 1)


def _rev_bits(value: int, n: int) -> int:
    """Reverse the low ``n`` bits of ``value`` (LSB-first <-> MSB-first)."""
    if n == 0:
        return 0
    return int(f"{value:0{n}b}"[::-1], 2)


def _encode_plane(writer: BitWriter, x: int, n: int, size: int) -> int:
    """ZFP group-testing bitplane pass; returns the updated significance count."""
    acc = 0
    nbits = 0
    if n:
        acc = _rev_bits(x & ((1 << n) - 1), n)
        nbits = n
    rest = x >> n
    pos = n
    while rest:
        # Group: a '1' test bit, then the plane bits up to and including the
        # next significant coefficient (LSB-first from position `pos`).
        glen = (rest & -rest).bit_length()
        group = _rev_bits((x >> pos) & ((1 << glen) - 1), glen)
        acc = (acc << (1 + glen)) | (1 << glen) | group
        nbits += 1 + glen
        pos += glen
        rest >>= glen
    if pos < size:
        acc <<= 1  # '0' test bit: no further significant coefficients
        nbits += 1
    writer.write_bits(acc, nbits)
    return pos


def _decode_plane(reader: BitReader, n: int, size: int) -> tuple[int, int]:
    """Inverse of :func:`_encode_plane`; returns (plane integer, new n)."""
    x = 0
    if n:
        x = _rev_bits(reader.read_bits(n), n)
    pos = n
    while pos < size:
        if not reader.read_bits(1):
            break
        span = size - pos
        start = reader.pos
        take = min(span, reader.size - start)
        if take <= 0:
            raise DecompressionError("bit stream exhausted")
        chunk = reader.read_bits(take)
        if chunk == 0:
            if take < span:
                raise DecompressionError("bit stream exhausted")
            raise DecompressionError("zfp plane ran past block size")
        zeros = take - chunk.bit_length()
        x |= 1 << (pos + zeros)
        pos += zeros + 1
        reader.pos = start + zeros + 1
    return x, pos


class ReferenceZFP(ZFP):
    """The per-block, per-bitplane ZFP coder (unregistered; tests only)."""

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        shape = values.shape
        block = _block_for_shape(shape)
        core_dims = sum(1 for b in block if b == 4)
        blocks = blockify(values, block)
        n_blocks = blocks.shape[0]
        core = blocks.reshape((n_blocks,) + (4,) * core_dims)
        bsize = 4**core_dims

        # Block-floating-point conversion.
        fmax = np.abs(core).reshape(n_blocks, -1).max(axis=1)
        nonzero = fmax > 0.0
        exps = np.zeros(n_blocks, dtype=np.int64)
        if nonzero.any():
            _, e = np.frexp(fmax[nonzero])
            exps[nonzero] = e
        scale = np.exp2(PRECISION - exps.astype(np.float64))
        q = np.rint(core * scale.reshape((n_blocks,) + (1,) * core_dims)).astype(
            np.int64
        )

        coeff = forward_transform(q).reshape(n_blocks, bsize)
        order = sequency_order(core_dims)
        neg = int_to_negabinary(coeff[:, order])

        # Plane integers, vectorized: P[k][b] packs plane k of block b.
        kmax_arr = np.zeros(n_blocks, dtype=np.int64)
        any_bits = neg.max(axis=1)
        nz = any_bits > 0
        if nz.any():
            kmax_arr[nz] = (
                np.floor(np.log2(any_bits[nz].astype(np.float64))).astype(np.int64)
            )
        # Guard against float log2 off-by-one at powers of two.
        kmax_arr = np.minimum(kmax_arr + 1, 63)
        global_kmax = int(kmax_arr.max()) if n_blocks else 0
        planes = np.zeros((global_kmax + 1, n_blocks), dtype=np.uint64)
        for k in range(global_kmax + 1):
            bits = ((neg >> np.uint64(k)) & np.uint64(1)).astype(np.uint8)
            packed = np.packbits(bits, axis=1, bitorder="little")
            if packed.shape[1] < 8:
                packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1])))
            planes[k] = packed[:, :8].copy().view(np.uint64).ravel()

        writer = BitWriter()
        kmins = np.array(
            [_kmin_for(int(e), abs_bound, core_dims) for e in exps], dtype=np.int64
        )
        flat_core = core.reshape(n_blocks, bsize)
        for b in range(n_blocks):
            if not nonzero[b]:
                writer.write_bits(0, 1)
                continue
            writer.write_bits(1, 1)
            e = int(exps[b])
            if _needs_raw_escape(e, abs_bound):
                # Verbatim escape: 1 flag bit + 64 bits/value, exact.
                writer.write_bits(1, 1)
                for word in flat_core[b].view(np.uint64):
                    writer.write_bits(int(word), 64)
                continue
            # True top plane of this block (exact scan fixes the +1 guard).
            kmax = int(kmax_arr[b])
            while kmax > 0 and planes[kmax, b] == 0:
                kmax -= 1
            # One batched header write: escape flag, exponent, top plane.
            writer.write_bits(
                ((e + _E_BIAS) << _K_BITS) | kmax, 1 + _E_BITS + _K_BITS
            )
            kmin = int(kmins[b])
            n = 0
            for k in range(kmax, kmin - 1, -1):
                n = _encode_plane(writer, int(planes[k, b]), n, bsize)

        header = struct.pack("<BQ", core_dims, n_blocks)
        return header + writer.getvalue()

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        core_dims, n_blocks = struct.unpack_from("<BQ", payload, 0)
        bsize = 4**core_dims
        reader = BitReader(payload[9:])

        neg = np.zeros((n_blocks, bsize), dtype=np.uint64)
        exps = np.zeros(n_blocks, dtype=np.int64)
        nonzero = np.zeros(n_blocks, dtype=bool)
        raw_blocks: dict[int, np.ndarray] = {}
        for b in range(n_blocks):
            if not reader.read_bits(1):
                continue
            nonzero[b] = True
            if reader.read_bits(1):  # verbatim escape
                raw = [reader.read_bits(64) for _ in range(bsize)]
                raw_blocks[b] = np.array(raw, dtype=np.uint64).view(np.float64)
                continue
            e = reader.read_bits(_E_BITS) - _E_BIAS
            exps[b] = e
            kmax = reader.read_bits(_K_BITS)
            kmin = _kmin_for(e, abs_bound, core_dims)
            n = 0
            row = neg[b]
            for k in range(kmax, kmin - 1, -1):
                x, n = _decode_plane(reader, n, bsize)
                if x:
                    kshift = np.uint64(k)
                    xb = np.frombuffer(
                        int(x).to_bytes(8, "little"), dtype=np.uint8
                    )
                    bits = np.unpackbits(xb, bitorder="little")[:bsize]
                    row |= bits.astype(np.uint64) << kshift

        coeff = negabinary_to_int(neg)
        order = sequency_order(core_dims)
        inv_order = np.argsort(order)
        coeff = coeff[:, inv_order].reshape((n_blocks,) + (4,) * core_dims)
        q = inverse_transform(coeff)
        scale = np.exp2(exps.astype(np.float64) - PRECISION)
        vals = q.astype(np.float64) * scale.reshape((n_blocks,) + (1,) * core_dims)
        vals[~nonzero] = 0.0
        for b, raw in raw_blocks.items():
            vals[b] = raw.reshape((4,) * core_dims)

        block = _block_for_shape(shape)
        full = vals.reshape((n_blocks,) + tuple(block))
        return unblockify(full, shape, tuple(block))
