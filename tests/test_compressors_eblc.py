"""Per-EBLC behaviour beyond the shared contract (see test_error_bounds_property)."""

import struct
import warnings

import numpy as np
import pytest

from repro import compress, decompress
from repro.compressors import SZ2, SZ3, QoZ, SZx, ZFP, get_compressor
from repro.compressors.base import Compressor
from repro.compressors.deflate import pack_chunk, unpack_chunk
from repro.compressors.huffman import huffman_max_bytes
from repro.errors import CompressionError, DecompressionError
from repro.metrics import check_error_bound, psnr

from hostile import assert_decodes_typed, bit_flips, decoded, truncations, walk


class TestSharedBehaviour:
    def test_roundtrip_all_ranks(self, eblc_name, any_field):
        eps = 1e-3
        buf = compress(np.array(any_field), eblc_name, eps)
        rec = decompress(buf)
        assert rec.shape == any_field.shape
        assert rec.dtype == any_field.dtype
        check_error_bound(any_field, rec, eps)

    def test_constant_array_exact(self, eblc_name):
        data = np.full((7, 9), 3.25, dtype=np.float32)
        buf = compress(data, eblc_name, 1e-2)
        rec = decompress(buf)
        np.testing.assert_array_equal(rec, data)
        assert buf.ratio > 3  # constant arrays must collapse

    def test_tighter_bound_lower_ratio_higher_psnr(self, eblc_name, smooth_3d):
        loose = compress(np.array(smooth_3d), eblc_name, 1e-1)
        tight = compress(np.array(smooth_3d), eblc_name, 1e-4)
        assert tight.ratio <= loose.ratio * 1.05
        p_loose = psnr(smooth_3d, decompress(loose))
        p_tight = psnr(smooth_3d, decompress(tight))
        assert p_tight > p_loose

    def test_rejects_bad_bound(self, eblc_name):
        comp = get_compressor(eblc_name)
        data = np.ones((4, 4), dtype=np.float32)
        with pytest.raises(CompressionError):
            comp.compress(data, 0.0)
        with pytest.raises(CompressionError):
            comp.compress(data, 1.5)

    def test_rejects_nonfinite(self, eblc_name):
        comp = get_compressor(eblc_name)
        data = np.array([1.0, np.nan, 2.0])
        with pytest.raises(CompressionError):
            comp.compress(data, 1e-3)

    def test_rejects_wrong_codec_stream(self, eblc_name, smooth_2d):
        buf = compress(np.array(smooth_2d), eblc_name, 1e-2)
        other = "sz3" if eblc_name != "sz3" else "zfp"
        with pytest.raises(DecompressionError):
            get_compressor(other).decompress(buf)

    def test_float64_inputs(self, eblc_name, noisy_3d):
        buf = compress(noisy_3d, eblc_name, 1e-3)
        rec = decompress(buf)
        assert rec.dtype == np.float64
        check_error_bound(noisy_3d, rec, 1e-3)


class TestSZ2:
    def test_mixed_predictors_used(self, rng):
        """Planar + walk data should engage both regression and Lorenzo."""
        i, j, k = np.meshgrid(*[np.arange(12)] * 3, indexing="ij")
        plane = 5.0 * i + 2.0 * j - k
        walk = np.cumsum(rng.standard_normal((12, 12, 12)), axis=0) * 3
        data = plane + walk
        buf = SZ2().compress(data, 1e-3)
        rec = SZ2().decompress(buf)
        check_error_bound(data, rec, 1e-3)

    def test_regression_bias_parameter(self, smooth_3d):
        biased = SZ2(regression_bias=100.0)  # effectively disable regression
        buf = biased.compress(np.array(smooth_3d), 1e-3)
        rec = biased.decompress(buf)
        check_error_bound(smooth_3d, rec, 1e-3)

    def test_4d_blocks(self, field_4d):
        buf = SZ2().compress(field_4d, 1e-3)
        check_error_bound(field_4d, SZ2().decompress(buf), 1e-3)

    def test_field_near_float64_max_raises_no_warning(self, rng):
        # Its regression coefficients pass the float32 range, so every
        # block falls back to Lorenzo; no overflow warning may leak.
        data = rng.standard_normal((9, 10, 11)) * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = SZ2().decompress(SZ2().compress(data, 1e-3))
        check_error_bound(data, rec, 1e-3)


SZ2_CORRUPT_CASES = {
    "walk_3d": (walk((12, 10, 9), 11), 1e-3),
    "plane_escapes_2d": (
        np.add.outer(np.arange(20.0), 0.5 * np.arange(18.0))
        + np.where(np.arange(360).reshape(20, 18) % 37 == 0, 1e4, 0.0),
        1e-9,
    ),
    "walk_1d": (walk((300,), 12), 1e-4),
}


class TestSZ2CorruptStreams:
    """A truncated or corrupted SZ2 stream raises ``DecompressionError`` or
    decodes to its declared shape and dtype, within a wall bound."""

    @pytest.mark.parametrize("name", sorted(SZ2_CORRUPT_CASES))
    def test_every_truncation(self, name):
        arr, rel = SZ2_CORRUPT_CASES[name]
        stream = SZ2().compress(arr, rel).data
        assert_decodes_typed("sz2", truncations(stream, name))

    @pytest.mark.parametrize("name", sorted(SZ2_CORRUPT_CASES))
    def test_seeded_bit_flips(self, name):
        arr, rel = SZ2_CORRUPT_CASES[name]
        stream = SZ2().compress(arr, rel).data
        assert_decodes_typed("sz2", bit_flips(stream, name, 250))

    @pytest.fixture
    def parts(self):
        arr, rel = SZ2_CORRUPT_CASES["plane_escapes_2d"]
        stream = SZ2().compress(arr, rel).data
        payload = Compressor._unpack_header(stream)[-1]
        header = stream[: len(stream) - len(payload)]
        # rank, two block sides, n_blocks, n_reg, then the mode bytes
        rank, b0, b1, n_blocks, n_reg = struct.unpack_from("<BHHQQ", payload)
        assert (rank, b0, b1) == (2, 16, 16) and n_reg > 0
        return header, payload

    def _rejected(self, data, needle):
        exc = decoded("sz2", data)
        assert isinstance(exc, DecompressionError), repr(exc)
        assert needle in str(exc)

    def test_huge_block_count(self, parts):
        header, payload = parts
        body = payload[:5] + struct.pack("<Q", 91625968984) + payload[13:]
        self._rejected(header + body, "blocks")

    def test_regression_count_against_modes(self, parts):
        header, payload = parts
        (n_reg,) = struct.unpack_from("<Q", payload, 13)
        for bad in (n_reg - 1, n_reg + 1, 2**60):
            body = payload[:13] + struct.pack("<Q", bad) + payload[21:]
            self._rejected(header + body, "regression")

    def test_block_rank_and_sides(self, parts):
        header, payload = parts
        self._rejected(header + b"\x03" + payload[1:], "rank")
        side = struct.pack("<H", 8)
        self._rejected(header + payload[:1] + side + payload[3:], "block")

    def test_coefficient_chunk_length(self, parts):
        header, payload = parts
        off = 21 + 1  # payload header, then one mode byte for 4 blocks
        clen, rlen = struct.unpack_from("<QQ", payload, off)
        body = payload[:off] + struct.pack("<QQ", clen, rlen + 4) + payload[off + 16 :]
        self._rejected(header + body, "raw bytes")

    def test_truncated_payload_header(self, parts):
        header, payload = parts
        for cut in range(21):
            self._rejected(header + payload[:cut], "sz2")

    def test_deflate_failure_is_typed(self, parts):
        header, payload = parts
        off = 22 + 16  # first chunk body
        flipped = bytes(b ^ 0xFF for b in payload[off : off + 4])
        body = payload[:off] + flipped + payload[off + 4 :]
        self._rejected(header + body, "inflate")

    def test_nonpositive_error_bound(self, parts):
        header, payload = parts
        for bound in (0.0, -1.0, float("nan")):
            self._rejected(header[:-8] + struct.pack("<d", bound) + payload, "bound")

    # 4 blocks of 16x16: an outlier pool of at most 8 bytes per element, and
    # the longest Huffman stream of that many codes.
    @pytest.mark.parametrize(
        "chunk, cap", [(1, 8 * 1024), (2, huffman_max_bytes(1024))]
    )
    def test_chunk_length_capped_before_inflate(self, parts, chunk, cap):
        header, payload = parts
        off = 22  # first chunk header
        for _ in range(chunk):
            off += 16 + struct.unpack_from("<Q", payload, off)[0]
        clen, _ = struct.unpack_from("<QQ", payload, off)
        for rlen, needle in ((cap, "mismatch"), (cap + 1, "at most"), (2**63, "at most")):
            body = payload[:off] + struct.pack("<QQ", clen, rlen) + payload[off + 16 :]
            self._rejected(header + body, needle)


class TestDeflateChunks:
    def test_roundtrip_and_next_offset(self):
        raw = bytes(range(256)) * 3
        data = b"xy" + pack_chunk(raw) + b"tail"
        got, off = unpack_chunk(data, 2, "t", raw_len=len(raw), max_len=len(raw))
        assert got == raw and data[off:] == b"tail"

    def test_inflate_stops_past_declared_length(self):
        chunk = bytearray(pack_chunk(bytes(10**6)))
        struct.pack_into("<Q", chunk, 8, 10)
        with pytest.raises(DecompressionError, match="overruns"):
            unpack_chunk(bytes(chunk), 0, "t")

    def test_unterminated_body_rejected(self):
        chunk = pack_chunk(b"abc" * 50)
        (clen,) = struct.unpack_from("<Q", chunk)
        short = struct.pack("<QQ", clen - 4, 150) + chunk[16:-4]
        with pytest.raises(DecompressionError, match="truncated"):
            unpack_chunk(short, 0, "t")

    def test_declared_length_checks(self):
        chunk = pack_chunk(b"abc" * 50)
        with pytest.raises(DecompressionError, match="expected 149"):
            unpack_chunk(chunk, 0, "t", raw_len=149)
        with pytest.raises(DecompressionError, match="at most 149"):
            unpack_chunk(chunk, 0, "t", max_len=149)


class TestSZ3:
    def test_beats_sz2_on_smooth_loose(self, smooth_3d):
        sz3 = SZ3().compress(np.array(smooth_3d), 1e-1)
        sz2 = SZ2().compress(np.array(smooth_3d), 1e-1)
        assert sz3.ratio > sz2.ratio * 0.8  # interpolation wins or ties

    def test_anchor_exactness(self):
        data = np.linspace(0, 100, 128).astype(np.float32).reshape(128)
        buf = SZ3().compress(data, 1e-2)
        rec = SZ3().decompress(buf)
        assert rec[0] == data[0]  # anchor stored exactly


class TestQoZ:
    def test_better_psnr_than_sz3_at_same_bound(self, smooth_3d):
        data = np.array(smooth_3d)
        q = psnr(data, QoZ().decompress(QoZ().compress(data, 1e-1)))
        s = psnr(data, SZ3().decompress(SZ3().compress(data, 1e-1)))
        assert q >= s - 0.5  # level tightening buys quality

    def test_params_travel_in_stream(self, smooth_2d):
        enc = QoZ(alpha=2.0, beta=8.0)
        buf = enc.compress(np.array(smooth_2d), 1e-2)
        dec = QoZ()  # default params; must use the stored ones
        rec = dec.decompress(buf)
        check_error_bound(smooth_2d, rec, 1e-2)
        np.testing.assert_array_equal(rec, enc.decompress(buf))

    def test_invalid_params(self):
        for alpha, beta in ((0.5, 4.0), (1.5, 0.0), (np.nan, 4.0), (1.5, np.inf)):
            with pytest.raises(CompressionError):
                QoZ(alpha=alpha, beta=beta)

    def test_stored_params_checked(self):
        stream = QoZ().compress(walk((9, 8), 5), 1e-3).data
        payload = Compressor._unpack_header(stream)[-1]
        header = stream[: len(stream) - len(payload)]
        for cut in range(16):
            with pytest.raises(DecompressionError, match="alpha"):
                QoZ().decompress(header + payload[:cut])
        for alpha, beta in ((np.nan, 4.0), (1.5, np.inf), (0.5, 4.0), (1.5, -1.0)):
            bad = header + struct.pack("<dd", alpha, beta) + payload[16:]
            with pytest.raises(DecompressionError, match="alpha"):
                QoZ().decompress(bad)

    def test_compress_to_psnr(self, smooth_3d):
        buf, achieved = QoZ().compress_to_psnr(np.array(smooth_3d), 70.0)
        assert achieved >= 70.0
        rec = QoZ().decompress(buf)
        assert psnr(smooth_3d, rec) >= 70.0


INTERP_CORRUPT_CASES = {
    "walk_3d": (walk((12, 10, 9), 21), 1e-3),
    "escapes_2d": (
        np.add.outer(np.arange(20.0), 0.5 * np.arange(18.0))
        + np.where(np.arange(360).reshape(20, 18) % 7 == 0, 1e4, 0.0),
        1e-9,
    ),
}


@pytest.mark.parametrize("codec", ["sz3", "qoz"])
class TestInterpCorruptStreams:
    """A truncated or corrupted SZ3/QoZ stream raises ``DecompressionError``
    or decodes to its declared shape and dtype, within a wall bound."""

    @pytest.mark.parametrize("name", sorted(INTERP_CORRUPT_CASES))
    def test_every_truncation(self, codec, name):
        arr, rel = INTERP_CORRUPT_CASES[name]
        stream = get_compressor(codec).compress(arr, rel).data
        assert_decodes_typed(codec, truncations(stream, name))

    @pytest.mark.parametrize("name", sorted(INTERP_CORRUPT_CASES))
    def test_seeded_bit_flips(self, codec, name):
        arr, rel = INTERP_CORRUPT_CASES[name]
        stream = get_compressor(codec).compress(arr, rel).data
        assert_decodes_typed(codec, bit_flips(stream, name, 250))

    @pytest.fixture
    def parts(self, codec):
        """(framing header, QoZ alpha/beta prefix, SZ3 body, chunk offsets)
        of the 3-D walk stream; the body starts with ``<II`` n_modes,
        n_anchor and one mode byte for its 12 passes."""
        arr, rel = INTERP_CORRUPT_CASES["walk_3d"]
        stream = get_compressor(codec).compress(arr, rel).data
        payload = Compressor._unpack_header(stream)[-1]
        header = stream[: len(stream) - len(payload)]
        prefix = payload[:16] if codec == "qoz" else b""
        body = payload[len(prefix) :]
        assert struct.unpack_from("<II", body) == (12, 1)
        offsets = [8 + 2]
        for _ in range(2):
            (clen,) = struct.unpack_from("<Q", body, offsets[-1])
            offsets.append(offsets[-1] + 16 + clen)
        return header, prefix, body, offsets

    def _rejected(self, codec, data, needle):
        exc = decoded(codec, data)
        assert isinstance(exc, DecompressionError), repr(exc)
        assert needle in str(exc), str(exc)

    def test_huge_declared_shape(self, codec, parts):
        header, prefix, body, _ = parts
        shape_off = 4 + 1 + len(codec) + 1 + 2
        for bad, needle in ((2**56 + 12, "passes"), (2**40, "passes"),
                            (13, "symbols")):
            huge = header[:shape_off] + struct.pack("<Q", bad) + header[shape_off + 8 :]
            self._rejected(codec, huge + prefix + body, needle)
        rank0 = bytearray(header[:shape_off])
        rank0[-1] = 0
        self._rejected(codec, bytes(rank0) + header[shape_off + 24 :] + prefix + body,
                       "rank-0")

    def test_high_declared_rank(self, codec):
        # A flip in the rank byte turns later bytes into a long shape; the
        # pass count is checked without building a plan per (level, axis).
        arr = walk((40, 30, 20), 3)
        stream = get_compressor(codec).compress(arr, 1e-4).data
        ndim_off = 4 + 1 + len(codec) + 1 + 1
        assert stream[ndim_off] == 3
        cases = []
        for ndim in (35, 67, 131, 255):
            if ndim_off + 1 + 8 * ndim + 16 > len(stream):
                continue
            corrupt = bytearray(stream)
            corrupt[ndim_off] = ndim
            cases.append((f"rank {ndim}", bytes(corrupt)))
        assert_decodes_typed(codec, cases)

    def test_mode_and_anchor_counts(self, codec, parts):
        header, prefix, body, _ = parts
        for n_modes, n_anchor, needle in ((11, 1, "passes"), (13, 1, "passes"),
                                          (2**32 - 1, 1, "passes"),
                                          (12, 0, "anchors"), (12, 2, "anchors")):
            bad = struct.pack("<II", n_modes, n_anchor) + body[8:]
            self._rejected(codec, header + prefix + bad, needle)

    @pytest.mark.parametrize(
        "chunk, cap, needle",
        [(0, 8, "expected 8"), (1, 8 * 1079, "at most"),
         (2, huffman_max_bytes(1079), "at most")],
    )
    def test_chunk_lengths_capped_before_inflate(self, codec, parts, chunk, cap,
                                                 needle):
        header, prefix, body, offsets = parts
        off = offsets[chunk]
        clen, _ = struct.unpack_from("<QQ", body, off)
        for rlen in (cap + 1, 2**63):
            bad = body[:off] + struct.pack("<QQ", clen, rlen) + body[off + 16 :]
            self._rejected(codec, header + prefix + bad, needle)

    def _repacked(self, body, offsets, chunk, raw):
        off = offsets[chunk]
        clen = struct.unpack_from("<Q", body, off)[0]
        return body[:off] + pack_chunk(raw) + body[off + 16 + clen :]

    def test_huffman_symbol_count(self, codec, parts):
        header, prefix, body, offsets = parts
        off = offsets[2]
        raw, _ = unpack_chunk(body, off, "t")
        for n in (1078, 1080, 2**32 - 1):
            bad = self._repacked(body, offsets, 2, struct.pack("<I", n) + raw[4:])
            self._rejected(codec, header + prefix + bad, "symbols")

    def test_outlier_pool_size(self, codec, parts):
        header, prefix, body, offsets = parts
        for raw, needle in ((bytes(8), "outlier pool size"),
                            (bytes(7), "whole float64")):
            bad = self._repacked(body, offsets, 1, raw)
            self._rejected(codec, header + prefix + bad, needle)



class TestZFP:
    def test_psnr_overachieves_bound(self, smooth_3d):
        """ZFP's fixed-accuracy mode typically lands well inside the bound."""
        data = np.array(smooth_3d)
        buf = ZFP().compress(data, 1e-2)
        rec = ZFP().decompress(buf)
        err = np.abs(rec.astype(np.float64) - data).max()
        bound = 1e-2 * (data.max() - data.min())
        assert err < bound  # strictly inside, usually by a wide margin

    def test_all_zero_blocks(self):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        data[0, 0, 0] = 0.0
        buf = ZFP().compress(data + 1.0, 1e-3)  # constant -> shortcut path
        rec = ZFP().decompress(buf)
        np.testing.assert_array_equal(rec, data + 1.0)

    def test_zero_regions_cheap(self, rng):
        data = np.zeros((16, 16, 16))
        data[:4] = rng.standard_normal((4, 16, 16))
        buf = ZFP().compress(data, 1e-3)
        rec = ZFP().decompress(buf)
        check_error_bound(data, rec, 1e-3)
        np.testing.assert_array_equal(rec[8:], 0.0)

    def test_4d_as_3d_slabs(self, field_4d):
        buf = ZFP().compress(field_4d, 1e-3)
        check_error_bound(field_4d, ZFP().decompress(buf), 1e-3)


class TestSZx:
    def test_constant_blocks_detected(self):
        data = np.concatenate([np.full(256, 5.0), np.linspace(0, 50, 256)])
        buf = SZx().compress(data.astype(np.float32), 1e-2)
        rec = SZx().decompress(buf)
        check_error_bound(data.astype(np.float32), rec, 1e-2)

    def test_fastest_smallest_machinery(self, noisy_3d):
        """SZx streams have no entropy stage: size ~ fixed-width codes."""
        buf = SZx().compress(noisy_3d, 1e-3)
        rec = SZx().decompress(buf)
        check_error_bound(noisy_3d, rec, 1e-3)
        assert buf.ratio < 16  # noisy data cannot exceed the fixed-width floor

    def test_non_multiple_of_block(self, rng):
        data = rng.standard_normal(1000)  # not a multiple of 128
        buf = SZx().compress(data, 1e-2)
        rec = SZx().decompress(buf)
        assert rec.shape == (1000,)
        check_error_bound(data, rec, 1e-2)


SZX_CORRUPT_CASES = {
    "walk_3d": (walk((12, 10, 9), 31), 1e-3),
    "const_and_ramp_1d": (
        np.concatenate([np.full(300, 5.0), np.linspace(0.0, 50.0, 340)]),
        1e-2,
    ),
}


class TestSZxCorruptStreams:
    """A truncated or corrupted SZx stream raises ``DecompressionError`` or
    decodes to its declared shape and dtype, within a wall bound."""

    @pytest.mark.parametrize("name", sorted(SZX_CORRUPT_CASES))
    def test_every_truncation(self, name):
        arr, rel = SZX_CORRUPT_CASES[name]
        stream = SZx().compress(arr, rel).data
        assert_decodes_typed("szx", truncations(stream, name))

    @pytest.mark.parametrize("name", sorted(SZX_CORRUPT_CASES))
    def test_seeded_bit_flips(self, name):
        arr, rel = SZX_CORRUPT_CASES[name]
        stream = SZx().compress(arr, rel).data
        assert_decodes_typed("szx", bit_flips(stream, name, 250))

    @pytest.fixture
    def parts(self):
        """(framing header, payload) of the 3-D walk stream: 1080 elements
        in 9 blocks, none constant at this bound."""
        arr, rel = SZX_CORRUPT_CASES["walk_3d"]
        stream = SZx().compress(arr, rel).data
        payload = Compressor._unpack_header(stream)[-1]
        assert struct.unpack_from("<QQ", payload) == (1080, 9)
        assert payload[24:26] == b"\x00\x00"
        return stream[: len(stream) - len(payload)], payload

    def _rejected(self, data, needle):
        exc = decoded("szx", data)
        assert isinstance(exc, DecompressionError), repr(exc)
        assert needle in str(exc), str(exc)

    def test_counts_against_shape(self, parts):
        header, payload = parts
        for n, n_blocks in ((1079, 9), (1081, 9), (2**60, 2**53), (1080, 8),
                            (1080, 10)):
            body = struct.pack("<QQ", n, n_blocks) + payload[16:]
            self._rejected(header + body, "declares")

    def test_bit_widths(self, parts):
        header, payload = parts
        for width in (0, 65, 255):
            body = payload[:26] + bytes([width]) + payload[27:]
            self._rejected(header + body, "bit widths")

    def test_code_length(self, parts):
        header, payload = parts
        (code_len,) = struct.unpack_from("<Q", payload, 16)
        for bad in (code_len - 1, code_len + 1, 2**63):
            body = payload[:16] + struct.pack("<Q", bad) + payload[24:]
            self._rejected(header + body, "bytes")
        # One spare code byte, declared: the payload length agrees, so the
        # block bit widths must catch it.
        body = payload[:16] + struct.pack("<Q", code_len + 1) + payload[24:]
        self._rejected(header + body + bytes(1), "bit widths need")

    def test_truncated_payload_header(self, parts):
        header, payload = parts
        for cut in range(24):
            self._rejected(header + payload[:cut], "szx")

    def test_flag_flip_changes_width_table(self, parts):
        header, payload = parts
        body = bytearray(payload)
        body[24] ^= 0x80  # first block now claims to be constant
        self._rejected(header + bytes(body), "holds")
