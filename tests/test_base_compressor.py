"""Shared Compressor framing, registry, and CompressedBuffer accounting."""

import numpy as np
import pytest

from repro import compress
from repro.compressors import (
    Compressor,
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.errors import CompressionError, DecompressionError


class TestRegistry:
    def test_all_expected_codecs_present(self):
        names = available_compressors()
        for expected in ["sz2", "sz3", "qoz", "zfp", "szx", "zstd", "blosc", "fpzip", "fpc"]:
            assert expected in names

    def test_eblc_only_filter(self):
        names = available_compressors(include_lossless=False)
        assert "zstd" not in names
        assert "sz3" in names

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_compressor("nope")

    def test_duplicate_registration_rejected(self):
        class Dup(Compressor):
            name = "sz3"

        with pytest.raises(ValueError):
            register_compressor(Dup)

    def test_unnamed_registration_rejected(self):
        class NoName(Compressor):
            name = ""

        with pytest.raises(ValueError):
            register_compressor(NoName)


class TestFraming:
    def test_header_carries_geometry(self, smooth_2d):
        buf = compress(np.array(smooth_2d), "szx", 1e-3)
        assert buf.shape == smooth_2d.shape
        assert buf.dtype == smooth_2d.dtype
        assert buf.rel_bound == 1e-3
        assert buf.original_nbytes == smooth_2d.nbytes

    def test_decompress_from_raw_bytes(self, smooth_2d):
        buf = compress(np.array(smooth_2d), "szx", 1e-3)
        rec = get_compressor("szx").decompress(buf.data)  # bytes, not buffer
        assert rec.shape == smooth_2d.shape

    def test_bad_magic(self):
        with pytest.raises(DecompressionError):
            get_compressor("szx").decompress(b"NOPE" + b"\x00" * 64)

    @pytest.mark.parametrize("codec", ["sz3", "szx", "zfp"])
    def test_constant_stream_declared_size_is_capped(self, codec):
        import struct

        from repro.compressors.base import MAX_DECLARED_ELEMENTS

        data = get_compressor(codec).compress(np.full((4, 5), 3.25), 1e-3).data
        shape_off = 4 + 1 + len(codec) + 1 + 2
        for shape, ok in (((2**20, 2**20), False), ((MAX_DECLARED_ELEMENTS + 1, 1), False),
                          ((3, 7), True)):
            forged = data[:shape_off] + struct.pack("<2Q", *shape) + data[shape_off + 16 :]
            if ok:
                assert get_compressor(codec).decompress(forged).shape == shape
            else:
                with pytest.raises(DecompressionError, match="cap"):
                    get_compressor(codec).decompress(forged)

    def test_ratio_and_bitrate(self):
        data = np.zeros((64, 64), dtype=np.float32) + 7.5
        buf = compress(data, "szx", 1e-3)
        assert buf.ratio == data.nbytes / buf.nbytes
        assert buf.bitrate == pytest.approx(8.0 * buf.nbytes / data.size)

    def test_empty_array_rejected(self):
        with pytest.raises(CompressionError):
            compress(np.zeros((0,), dtype=np.float32), "szx", 1e-3)

    def test_int_dtype_rejected(self):
        with pytest.raises(CompressionError):
            compress(np.zeros((4, 4), dtype=np.int32), "szx", 1e-3)

    def test_float32_cast_margin(self):
        """Bound must hold on the float32-returned array, not just float64."""
        r = np.random.default_rng(3)
        data = (1000.0 + r.uniform(0, 1.0, 4096)).astype(np.float32)
        for codec in ["sz2", "sz3", "qoz", "zfp", "szx"]:
            buf = compress(data, codec, 1e-4)
            rec = get_compressor(codec).decompress(buf)
            bound = 1e-4 * float(data.max() - data.min())
            assert np.abs(rec.astype(np.float64) - data.astype(np.float64)).max() <= bound * (1 + 1e-9), codec
