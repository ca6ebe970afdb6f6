"""Bit-level I/O: vectorized packing round-trips and rejects bad input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.bitstream import pack_bits, unpack_bits
from repro.errors import DecompressionError


class TestPackBits:
    def test_roundtrip_simple(self):
        values = np.array([5, 0, 255, 1], dtype=np.uint64)
        widths = np.array([3, 1, 8, 2])
        out = unpack_bits(pack_bits(values, widths), widths)
        np.testing.assert_array_equal(out, values)

    def test_empty(self):
        assert pack_bits(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=int)) == b""
        assert unpack_bits(b"", np.zeros(0, dtype=int)).size == 0

    def test_zero_widths_contribute_nothing(self):
        values = np.array([7, 3, 7], dtype=np.uint64)
        widths = np.array([3, 0, 3])
        packed = pack_bits(values, widths)
        assert len(packed) == 1  # 6 bits -> 1 byte
        out = unpack_bits(packed, widths)
        np.testing.assert_array_equal(out, [7, 0, 7])

    def test_width_64(self):
        values = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
        widths = np.array([64, 64, 64])
        out = unpack_bits(pack_bits(values, widths), widths)
        np.testing.assert_array_equal(out, values)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1], dtype=np.uint64), np.array([65]))
        with pytest.raises(ValueError):
            pack_bits(np.array([1], dtype=np.uint64), np.array([-1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1, 2], dtype=np.uint64), np.array([3]))

    def test_truncated_stream_raises(self):
        packed = pack_bits(np.array([1] * 10, dtype=np.uint64), np.full(10, 7))
        with pytest.raises(DecompressionError):
            unpack_bits(packed[:-1], np.full(10, 7))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 33)),
            min_size=1,
            max_size=200,
        )
    )
    def test_roundtrip_property(self, pairs):
        widths = np.array([w for _, w in pairs], dtype=np.int64)
        values = np.array(
            [v & ((1 << w) - 1) for v, w in pairs], dtype=np.uint64
        )
        out = unpack_bits(pack_bits(values, widths), widths)
        np.testing.assert_array_equal(out, values)

