"""Lossless baselines: bit-exact roundtrips on every float regime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compress, decompress
from repro.compressors import get_compressor
from repro.compressors.lossless.fpzip_like import _unzigzag64, _zigzag64

from hostile import assert_decodes_typed, bit_flips, truncations, walk


class TestRoundtrips:
    def test_exact_roundtrip(self, lossless_name, any_field):
        buf = compress(np.array(any_field), lossless_name)
        rec = decompress(buf)
        assert rec.dtype == any_field.dtype
        np.testing.assert_array_equal(rec, any_field)

    def test_float32_and_float64(self, lossless_name, rng):
        for dtype in (np.float32, np.float64):
            data = rng.standard_normal(777).astype(dtype)
            rec = decompress(compress(data, lossless_name))
            np.testing.assert_array_equal(rec, data)

    def test_special_values(self, lossless_name):
        data = np.array(
            [0.0, -0.0, 1.5, -1.5, np.finfo(np.float64).tiny, 1e308, -1e308]
        )
        rec = decompress(compress(data, lossless_name))
        np.testing.assert_array_equal(
            rec.view(np.uint64), data.view(np.uint64)
        )  # bit-exact including -0.0

    def test_smooth_data_compresses(self, lossless_name):
        x = np.linspace(0, 1, 100_0)
        data = np.sin(x).astype(np.float64)
        buf = compress(data, lossless_name)
        assert buf.ratio > 1.0

    def test_lossless_ratio_ceiling_vs_eblc(self, lossless_name, smooth_3d):
        """Fig. 1's premise: lossless stays in single digits where EBLC soars."""
        data = np.array(smooth_3d)
        lossless_ratio = compress(data, lossless_name).ratio
        eblc_ratio = compress(data, "sz3", 1e-2).ratio
        assert lossless_ratio < eblc_ratio

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            min_size=1,
            max_size=200,
        )
    )
    def test_roundtrip_property_fpc(self, values):
        data = np.array(values, dtype=np.float64)
        rec = decompress(compress(data, "fpc"))
        np.testing.assert_array_equal(rec.view(np.uint64), data.view(np.uint64))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            min_size=1,
            max_size=200,
        )
    )
    def test_roundtrip_property_fpzip(self, values):
        data = np.array(values, dtype=np.float64)
        rec = decompress(compress(data, "fpzip"))
        np.testing.assert_array_equal(rec.view(np.uint64), data.view(np.uint64))


class TestZigzag64:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(-(2**63), 2**63 - 1))
    def test_full_range_roundtrip(self, v):
        x = np.array([v], dtype=np.int64)
        np.testing.assert_array_equal(_unzigzag64(_zigzag64(x)), x)

    def test_small_values_fold_small(self):
        x = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        np.testing.assert_array_equal(_zigzag64(x), [0, 1, 2, 3, 4])


class TestShuffleStructure:
    def test_blosc_shuffle_helps_on_slowly_varying_exponents(self):
        data = (1000.0 + np.arange(50000) * 1e-3).astype(np.float64)
        blosc = compress(data, "blosc").ratio
        zstd = compress(data, "zstd").ratio
        assert blosc > zstd  # byte planes expose the constant exponent bytes

    def test_blosc_multi_chunk(self, rng):
        data = rng.standard_normal(200_000)  # > one 256 KiB chunk after shuffle
        rec = decompress(compress(data, "blosc"))
        np.testing.assert_array_equal(rec, data)

    def test_lossless_flag_set(self, lossless_name):
        assert get_compressor(lossless_name).lossless is True


CORRUPT_CASES = {
    "walk_3d": walk((12, 10, 9), 11),
    "walk_1d_f32": walk((300,), 12).astype(np.float32),
}


class TestCorruptStreams:
    """A truncated or bit-flipped lossless stream raises
    ``DecompressionError`` or decodes to its declared shape and dtype, within
    a wall bound."""

    @pytest.mark.parametrize("name", sorted(CORRUPT_CASES))
    def test_every_truncation(self, lossless_name, name):
        stream = compress(CORRUPT_CASES[name], lossless_name).data
        assert_decodes_typed(lossless_name, truncations(stream, name))

    @pytest.mark.parametrize("name", sorted(CORRUPT_CASES))
    def test_seeded_bit_flips(self, lossless_name, name):
        stream = compress(CORRUPT_CASES[name], lossless_name).data
        assert_decodes_typed(lossless_name, bit_flips(stream, name, 300))
