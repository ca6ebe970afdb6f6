"""The block-parallel ZFP coder against the scalar reference it replaced.

:class:`ReferenceZFP` keeps the original per-bitplane group-testing coder
(``_encode_plane`` / ``_decode_plane`` over a :class:`BitWriter` /
:class:`BitReader`) as a test-only reference.  The hypothesis battery asserts
that the vectorized coder writes byte-identical streams and decodes them to
bit-identical arrays, not merely arrays within the bound.  The remaining
classes pin the decoder's handling of hostile payloads: a payload header
that disagrees with the stream's shape, every truncation of a small stream,
and seeded single-bit flips must raise :class:`DecompressionError` or return
an array of the declared shape and dtype, each within a wall-time bound.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.base import Compressor
from repro.compressors.bitstream import BitReader, BitWriter
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
    _bit_length,
    _block_for_shape,
    _kmin_for,
    _needs_raw_escape,
)
from repro.errors import DecompressionError

from hostile import assert_decodes_typed, bit_flips, decoded, truncations, walk

# -- scalar reference coder ----------------------------------------------------


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
        if not reader.read_bit():
            break
        span = size - pos
        start = reader.bit_position
        take = min(span, reader.bit_size - start)
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
        reader.seek_bit(start + zeros + 1)
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
                writer.write_bit(0)
                continue
            writer.write_bit(1)
            e = int(exps[b])
            if _needs_raw_escape(e, abs_bound):
                # Verbatim escape: 1 flag bit + 64 bits/value, exact.
                writer.write_bit(1)
                writer.write_many(
                    flat_core[b].view(np.uint64), np.full(bsize, 64, dtype=np.int64)
                )
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
            if not reader.read_bit():
                continue
            nonzero[b] = True
            if reader.read_bit():  # verbatim escape
                raw = reader.read_many(np.full(bsize, 64, dtype=np.int64))
                raw_blocks[b] = raw.view(np.float64)
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


# -- helpers -------------------------------------------------------------------


def _split(data: bytes) -> tuple[bytes, bytes]:
    """A stream's framing header and its codec payload."""
    payload = Compressor._unpack_header(data)[-1]
    return data[: len(data) - len(payload)], payload


# -- reference battery ---------------------------------------------------------

_MAX_SIDE = {1: 41, 2: 11, 3: 7, 4: 5}


@st.composite
def zfp_inputs(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, _MAX_SIDE[ndim])) for _ in range(ndim))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(
        st.sampled_from(["smooth", "noise", "offset", "zero_blocks", "constant"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-20.0, 20.0))
    if kind == "smooth":
        arr = walk(shape, rng.integers(2**32)) * scale
    elif kind == "noise":
        arr = rng.standard_normal(shape) * scale + rng.uniform(-1, 1) * scale
    elif kind == "offset":
        # Huge common exponent, micro-scale range: the raw-escape regime.
        arr = 1.0e8 + rng.standard_normal(shape) * 1e-4
    elif kind == "zero_blocks":
        arr = rng.standard_normal(shape) * scale
        arr[tuple(slice(0, max(1, s // 2)) for s in shape)] = 0.0
        arr.reshape(-1)[0] = 0.0
    else:
        arr = np.full(shape, rng.uniform(-1, 1) * scale)
    rel = 10.0 ** draw(st.floats(-12.0, float(np.log10(0.5))))
    return arr.astype(dtype), rel


class TestAgainstScalarReference:
    @settings(max_examples=120, deadline=None)
    @given(zfp_inputs())
    def test_streams_and_decodes_bit_identical(self, case):
        arr, rel = case
        stream = ZFP().compress(arr, rel).data
        assert stream == ReferenceZFP().compress(arr, rel).data
        np.testing.assert_array_equal(
            ZFP().decompress(stream), ReferenceZFP().decompress(stream)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(37,), (9, 6), (5, 7, 6), (2, 5, 3, 6)], ids=str
    )
    def test_regimes(self, shape, dtype):
        """Deterministic spot checks: mixed zero / raw-escape / coded blocks."""
        rng = np.random.default_rng(2026)
        arr = rng.standard_normal(shape) * 3.0
        arr[tuple(slice(0, max(1, s // 2)) for s in shape)] = 0.0
        escape = 1.0e8 + rng.standard_normal(shape) * 1e-4
        for data, rel in ((arr, 1e-12), (arr, 0.5), (escape, 1e-12), (arr, 1e-3)):
            data = data.astype(dtype)
            stream = ZFP().compress(data, rel).data
            assert stream == ReferenceZFP().compress(data, rel).data
            np.testing.assert_array_equal(
                ZFP().decompress(stream), ReferenceZFP().decompress(stream)
            )

    def test_bit_length_exact_where_float_rounds_up(self):
        edges = [0, 1, 2, 3, 2**53 - 1, 2**53 + 1, 2**54 - 1, 2**63 - 1, 2**63]
        edges += [2**64 - 2048, 2**64 - 1]
        values = np.array(edges, dtype=np.uint64)
        assert _bit_length(values).tolist() == [v.bit_length() for v in edges]

    def test_raw_escape_is_exercised(self):
        arr = 1.0e8 + np.random.default_rng(5).standard_normal((4, 4, 4)) * 1e-4
        stream = ZFP().compress(arr, 1e-12).data
        payload = _split(stream)[1]
        # Nonzero flag then escape flag on the first (only) block.
        assert payload[9] >> 6 == 0b11
        np.testing.assert_array_equal(ZFP().decompress(stream), arr)


# -- payload header ------------------------------------------------------------


class TestPayloadHeaderChecked:
    """The 9-byte ``<BQ`` payload header is checked against the shape before
    the decoder allocates anything."""

    @pytest.fixture(scope="class")
    def stream(self):
        return ZFP().compress(walk((9, 10, 11), 3), 1e-3).data

    def _with_payload(self, stream, payload):
        return _split(stream)[0] + payload

    def test_payload_shorter_than_header(self, stream):
        data = self._with_payload(stream, _split(stream)[1][:5])
        exc = decoded("zfp", data)
        assert isinstance(exc, DecompressionError)
        assert "shorter" in str(exc)

    def test_huge_block_count(self, stream):
        payload = _split(stream)[1]
        data = self._with_payload(stream, struct.pack("<BQ", 3, 2**40) + payload[9:])
        exc = decoded("zfp", data)
        assert isinstance(exc, DecompressionError)
        assert "blocks" in str(exc)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_block_count_off_by_one(self, stream, delta):
        payload = _split(stream)[1]
        core_dims, n_blocks = struct.unpack_from("<BQ", payload)
        header = struct.pack("<BQ", core_dims, n_blocks + delta)
        data = self._with_payload(stream, header + payload[9:])
        exc = decoded("zfp", data)
        assert isinstance(exc, DecompressionError)

    def test_core_rank_out_of_range(self, stream):
        payload = _split(stream)[1]
        data = self._with_payload(stream, b"\x09" + payload[1:])
        exc = decoded("zfp", data)
        assert isinstance(exc, DecompressionError)
        assert "rank" in str(exc)


# -- corrupt streams -----------------------------------------------------------


CORRUPT_CASES = {
    "smooth_3d": (walk((6, 5, 7), 11), 1e-3),
    "noisy_1d": (np.random.default_rng(12).standard_normal(45) * 7.0, 1e-5),
    "escape_2d": (
        1.0e8 + np.random.default_rng(13).standard_normal((4, 5)) * 1e-4,
        1e-12,
    ),
}


class TestCorruptStreams:
    @pytest.mark.parametrize("name", sorted(CORRUPT_CASES))
    def test_every_truncation(self, name):
        arr, rel = CORRUPT_CASES[name]
        stream = ZFP().compress(arr, rel).data
        assert_decodes_typed("zfp", truncations(stream, name))

    @pytest.mark.parametrize("name", sorted(CORRUPT_CASES))
    def test_seeded_bit_flips(self, name):
        arr, rel = CORRUPT_CASES[name]
        stream = ZFP().compress(arr, rel).data
        assert_decodes_typed("zfp", bit_flips(stream, name, 150))

    def test_corrupt_abs_bound(self):
        """A stored absolute bound of NaN, inf, zero, negative or extreme
        magnitude is rejected or decoded to the declared shape, never a raw
        Python error from the cut-off plane computation."""
        arr, rel = CORRUPT_CASES["smooth_3d"]
        stream = ZFP().compress(arr, rel).data
        header, payload = _split(stream)
        assert_decodes_typed("zfp", (
            (f"abs_bound={bound!r}", header[:-8] + struct.pack("<d", bound) + payload)
            for bound in (float("nan"), float("inf"), -1.0, 0.0, 1e300, 5e-324)
        ))
