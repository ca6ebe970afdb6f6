"""The block-parallel ZFP coder against the scalar reference it replaced.

:class:`~reference.zfp.ReferenceZFP` is the original per-bitplane
group-testing coder over a sequential bit stream.  The hypothesis battery
asserts that the vectorized coder writes byte-identical streams and decodes
them to bit-identical arrays, not merely arrays within the bound.  The remaining
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
from repro.compressors.bitstream import bit_length
from repro.compressors.zfp import ZFP
from repro.errors import DecompressionError

from hostile import assert_decodes_typed, bit_flips, decoded, truncations, walk
from reference.zfp import ReferenceZFP

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
        assert bit_length(values).tolist() == [v.bit_length() for v in edges]

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
