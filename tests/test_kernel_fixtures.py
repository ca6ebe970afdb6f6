"""Frozen-stream fixtures: the kernel byte format is pinned bit-for-bit.

``tests/fixtures/kernel_streams.npz`` was captured from the original
per-symbol/per-bit implementations (see ``tools/gen_kernel_fixtures.py``).
These tests assert that the vectorized Huffman, bit-packing, ZFP, SZ2, SZ3
and QoZ kernels still *produce* byte-identical streams (forward
compatibility) and still *decode* the frozen streams to the original arrays
(backward compatibility) — including the empty, single-symbol, and
longer-than-``PEEK_BITS`` alphabets.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.compressors.bitstream import pack_bits, unpack_bits
from repro.compressors.deflate import unpack_chunk
from repro.compressors.huffman import PEEK_BITS, huffman_decode, huffman_encode

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "kernel_streams.npz"


@pytest.fixture(scope="module")
def frozen():
    return np.load(FIXTURES)


def _cases(frozen, prefix):
    return sorted({k.split("/")[1] for k in frozen.files if k.startswith(prefix + "/")})


class TestHuffmanFrozenStreams:
    def test_covers_required_regimes(self, frozen):
        cases = _cases(frozen, "huffman")
        assert "empty" in cases
        assert "single_symbol" in cases
        assert "two_symbols" in cases
        assert "very_long_codes" in cases

    def test_encode_byte_identical(self, frozen):
        for name in _cases(frozen, "huffman"):
            syms = frozen[f"huffman/{name}/input"]
            expected = frozen[f"huffman/{name}/blob"].tobytes()
            assert huffman_encode(syms) == expected, name

    def test_decode_frozen_streams(self, frozen):
        for name in _cases(frozen, "huffman"):
            syms = frozen[f"huffman/{name}/input"]
            blob = frozen[f"huffman/{name}/blob"].tobytes()
            np.testing.assert_array_equal(huffman_decode(blob), syms, err_msg=name)

    def test_long_code_fixture_exceeds_peek(self, frozen):
        # Reconstruct the canonical lengths and confirm the escape path is hit.
        from repro.compressors.huffman import _code_lengths

        syms = frozen["huffman/very_long_codes/input"]
        values, counts = np.unique(syms, return_counts=True)
        lengths = _code_lengths(counts.astype(np.int64))
        assert lengths.max() > PEEK_BITS


class TestPackFrozenStreams:
    def test_pack_byte_identical(self, frozen):
        for name in _cases(frozen, "pack"):
            values = frozen[f"pack/{name}/values"]
            widths = frozen[f"pack/{name}/widths"]
            expected = frozen[f"pack/{name}/blob"].tobytes()
            assert pack_bits(values, widths) == expected, name

    def test_unpack_frozen_streams(self, frozen):
        for name in _cases(frozen, "pack"):
            values = frozen[f"pack/{name}/values"]
            widths = frozen[f"pack/{name}/widths"]
            blob = frozen[f"pack/{name}/blob"].tobytes()
            out = unpack_bits(blob, widths)
            np.testing.assert_array_equal(out, np.where(widths > 0, values, 0), name)


#: sha256 of each frozen ZFP stream's decoded array, captured with the
#: per-bitplane scalar coder before the block-parallel rewrite.
ZFP_DECODED_SHA256 = {
    "noisy_2d": "eb97954193f353a55c0b73cddd28af6d1c20bfc22783c685ec22813d602ab3af",
    "ramp_1d": "d36d94be5ab02b84ade6aba743f3ed9d654362521d63f1ac8cd3cc497125bed6",
    "raw_escape": "067c28e361f4fd1867ff63d87287708a34614e5901abaf04b37b5cf8238b1863",
    "smooth_3d": "2c57b49e91abc0020ad4ab52c4a4ed7d383ed008a9aa6984c968223f1838f647",
    "with_zero_blocks": (
        "c685c628d50a00a1d24bec93758540f09bc3e7d6f318929241c0c4d0d8d546b8"
    ),
}


class TestZFPFrozenStreams:
    def test_compress_byte_identical(self, frozen):
        comp = get_compressor("zfp")
        for name in _cases(frozen, "zfp"):
            arr = frozen[f"zfp/{name}/input"]
            rel = float(frozen[f"zfp/{name}/rel_bound"][0])
            expected = frozen[f"zfp/{name}/blob"].tobytes()
            assert comp.compress(arr, rel).data == expected, name

    def test_decompress_frozen_streams_within_bound(self, frozen):
        comp = get_compressor("zfp")
        for name in _cases(frozen, "zfp"):
            arr = frozen[f"zfp/{name}/input"]
            rel = float(frozen[f"zfp/{name}/rel_bound"][0])
            blob = frozen[f"zfp/{name}/blob"].tobytes()
            recon = comp.decompress(blob)
            assert recon.shape == arr.shape
            span = float(arr.max() - arr.min())
            bound = rel * (span if span > 0 else 1.0)
            assert np.abs(recon - arr).max() <= bound * (1 + 1e-9), name

    def test_decompress_frozen_streams_pinned(self, frozen):
        comp = get_compressor("zfp")
        assert sorted(ZFP_DECODED_SHA256) == _cases(frozen, "zfp")
        for name, digest in ZFP_DECODED_SHA256.items():
            recon = comp.decompress(frozen[f"zfp/{name}/blob"].tobytes())
            assert recon.dtype == np.float64, name
            assert hashlib.sha256(recon.tobytes()).hexdigest() == digest, name


#: sha256 of each frozen SZ2 stream's decoded array, captured with the
#: raster-order Lorenzo walk and the leaf-list Huffman code lengths.
SZ2_DECODED_SHA256 = {
    "escapes_2d": "211d2754a62c8f28eb09113ee57af36698d1b8680c557a8920d2705f52a06129",
    "escapes_3d": "1ad442b995fe825cc265efb658e5a3aff96143dee76a8ef0a52d037d39606609",
    "field_4d_f32": "a1a39b356674c1bdc60c9fa37185e618739c0a5ad118ab41b2a185c62d48aa97",
    "many_blocks_3d_f32": (
        "a58cf575829193516390a699d7359ec92b5dbe8a471233dc44bf4875d635b62b"
    ),
    "noisy_2d_f32": "593920cb9bc7a6e9669c25df76b2aacf2e0b1f5bc75a4da63f78b01c158e8845",
    "nonfinite_1d": "a5920fc12502fa7aa2c4e6679479d56dce09438de515f8b7805893d984cb75cf",
    "nonfinite_2d": "784c3dd91bc360d4a6231c10b31832f8b34572ba3ecce2b3083f7cd438fb655d",
    "nonfinite_3d": "5c65105cd8d52f3324b66d9f0fc910e283f2937d25b624ebbef3f611d93352e6",
    "nonfinite_4d": "d9859c6190fa2692207aa0bf332bd5da8e7fa5edb9e9882cd0c0d295568adf95",
    "ramp_1d_one_block": (
        "0f858612eccc13dc5bee41dfcd9d280074539b84149b1f11ef2c598bfca6a85b"
    ),
    "smooth_3d": "b49515008b2ce109506988174d221d4a00274a1301ede416d6df3fce436106da",
    "walk_1d_f32": "6d1013787b8ca36329b25be65740256cb1f8078926c5729fc9b2a2a601c615ff",
}


class TestSZ2FrozenStreams:
    """SZ2 streams: ``rel_bound`` cases go through the public API; the
    non-finite ``abs_bound`` cases pin the codec payload directly."""

    def test_covers_required_regimes(self, frozen):
        cases = _cases(frozen, "sz2")
        assert sorted(SZ2_DECODED_SHA256) == cases
        ranks = {frozen[f"sz2/{name}/input"].ndim for name in cases}
        dtypes = {frozen[f"sz2/{name}/input"].dtype for name in cases}
        assert ranks == {1, 2, 3, 4}
        assert dtypes == {np.dtype(np.float32), np.dtype(np.float64)}
        nonfinite = frozen["sz2/nonfinite_3d/input"]
        assert np.isnan(nonfinite).any() and np.isinf(nonfinite).any()

    def test_compress_byte_identical(self, frozen):
        comp = get_compressor("sz2")
        for name in _cases(frozen, "sz2"):
            arr = frozen[f"sz2/{name}/input"]
            expected = frozen[f"sz2/{name}/blob"].tobytes()
            if f"sz2/{name}/rel_bound" in frozen.files:
                rel = float(frozen[f"sz2/{name}/rel_bound"][0])
                assert comp.compress(arr, rel).data == expected, name
            else:
                abs_bound = float(frozen[f"sz2/{name}/abs_bound"][0])
                with np.errstate(all="ignore"):
                    assert comp._compress_impl(arr, abs_bound) == expected, name

    def test_decompress_frozen_streams_pinned(self, frozen):
        comp = get_compressor("sz2")
        for name, digest in SZ2_DECODED_SHA256.items():
            arr = frozen[f"sz2/{name}/input"]
            blob = frozen[f"sz2/{name}/blob"].tobytes()
            if f"sz2/{name}/rel_bound" in frozen.files:
                recon = comp.decompress(blob)
                rel = float(frozen[f"sz2/{name}/rel_bound"][0])
                span = float(arr.max()) - float(arr.min())
                err = np.abs(recon.astype(np.float64) - arr.astype(np.float64))
                assert err.max() <= rel * span, name
            else:
                abs_bound = float(frozen[f"sz2/{name}/abs_bound"][0])
                with np.errstate(all="ignore"):
                    recon = comp._decompress_impl(blob, arr.shape, abs_bound)
            assert recon.dtype == arr.dtype and recon.shape == arr.shape, name
            assert hashlib.sha256(recon.tobytes()).hexdigest() == digest, name


#: sha256 of each frozen SZ3 / QoZ stream's decoded array, captured with the
#: ``np.ix_`` interpolation engine and the heap-built Huffman code lengths.
INTERP_DECODED_SHA256 = {
    "sz3": {
        "escapes_2d": "de8dd37635fa0fbaeb4f8f923a1a24a95ee9dac82cb2fedd22179f578cf76ae2",
        "escapes_3d": "67881ec4b44540163d144959aaa851edd0a66e64cdb7a3743bfe3b67fe2e194a",
        "field_4d_f32": "e6b6df4ebfb289e9d1609ee617bcc4663e581668b83730d5ecea1f0434d4c6b8",
        "noisy_2d_loose_f32": "1363c52c45714619b38e0de273cc24f66f26a752483963d43eef1e0a9c48acab",
        "nonfinite_3d": "2bfc970b42a5206b3c27b6d58a8fd0a643310da9fbb9b7f44438caddf2106790",
        "ramp_1d_pow2": "68314cddb1e9439cfc8777a8545eecfe514aae0fcf2dd283b201a8f69c0a6678",
        "size1_axis_3d": "a2a7eeb09bfa9905644edf1fe4c3f97b9547c6a91976888b0b0cadc892382f85",
        "smooth_2d_tight": "cf61fc3c1bef8c713cb4d71c0969c3b200776bb80c9851de298f2c93f292a3eb",
        "smooth_3d": "9e18e4bdadbd0cc4df1f326c899c9971cb34a292fea944492f1a7aa7e10109bc",
        "smooth_3d_tight_f32": "ad6ddcd2a685cbebbad9bbe817f5f5a7e18da1ec1a3825b59c1a8d795bf8aee1",
        "walk_1d_f32": "cea8f6f4dad9142d01174b8d7e749a7fee0cd88745cf227659b8c4af6f29a625",
        "walk_4d": "32210dfc89ebf6dd27b03457370c22ef6b818962fd2aece0ff8869a5b860a79b",
    },
    "qoz": {
        "escapes_2d": "88b23c45a58a3c8650b671adb808a4337083ff6d1d9e9650b703b9200c10b800",
        "escapes_3d": "1f816d8985b3458b335357211ec4c30f1cd0cf7a5603eea03ec2a2a227d620ea",
        "field_4d_f32": "330c26c4b6a9228b57933dc56af5aaec36ac23047b3e2d306e0106e4657670a3",
        "noisy_2d_loose_f32": "d7a2c9f72e444ea645a7cbd3707600bbe293d724a6496ff1a63cfa785b96be5a",
        "nonfinite_3d": "09af411f801c81edd488cb2d39da64e8f67ebe43867e49ae3d5c29bdec46ac74",
        "ramp_1d_pow2": "8f74668858a3fe1238bf6b80305c257c46b2d09b70073327f25187d3b0dd0581",
        "size1_axis_3d": "d57afd88d288fbc6ad9940b2449245d08d9d6d55113e9547f799376275ecc986",
        "smooth_2d_tight": "eecf2b091750815b459a7067624112f88761c897875c375279845c2f7fce2840",
        "smooth_3d": "781430082a9ea41129e2e537b7419282f13129e3ade0eb3e674b6d7513b38fb0",
        "smooth_3d_tight_f32": "b8db92df59b74fa6f27d01f54f8fa4dd188b838a5550a42244255fd429ede42d",
        "walk_1d_f32": "06fbb6bad1ac29a1f06761fc9bd631db0dd4cf494c5e3c2cd0965325f376ab22",
        "walk_4d": "e7c0b96febacd0d5713c7b57a9a8b0f7159456a69c78d73acfb2c27f96b56c7b",
    },
}


def _interp_codec(frozen, codec, name):
    """The compressor a frozen SZ3/QoZ case was encoded with."""
    key = f"{codec}/{name}/params"
    if key not in frozen.files:
        return get_compressor(codec)
    alpha, beta = frozen[key]
    return get_compressor(codec, alpha=float(alpha), beta=float(beta))


def _interp_layout(frozen, codec, name):
    """Per-pass LINEAR/CUBIC choices and escape count of a frozen SZ3/QoZ
    stream."""
    blob = frozen[f"{codec}/{name}/blob"].tobytes()
    if f"{codec}/{name}/rel_bound" in frozen.files:
        blob = Compressor._unpack_header(blob)[-1]
    if codec == "qoz":
        blob = blob[16:]  # alpha, beta
    n_modes, _ = struct.unpack_from("<II", blob)
    n_mode_bytes = -(-n_modes // 8)
    packed = np.frombuffer(blob, dtype=np.uint8, count=n_mode_bytes, offset=8)
    _, off = unpack_chunk(blob, 8 + n_mode_bytes, codec)  # anchors
    outliers, _ = unpack_chunk(blob, off, codec)
    return np.unpackbits(packed)[:n_modes], len(outliers) // 8


@pytest.mark.parametrize("codec", ["sz3", "qoz"])
class TestInterpFrozenStreams:
    """SZ3 and QoZ streams, pinned as for SZ2: ``rel_bound`` cases through
    the public API, the non-finite ``abs_bound`` case at the codec payload."""

    def test_covers_required_regimes(self, frozen, codec):
        cases = _cases(frozen, codec)
        assert sorted(INTERP_DECODED_SHA256[codec]) == cases
        inputs = [frozen[f"{codec}/{name}/input"] for name in cases]
        assert {arr.ndim for arr in inputs} == {1, 2, 3, 4}
        assert any(1 in arr.shape for arr in inputs)
        assert any(n & (n - 1) for arr in inputs for n in arr.shape)
        layouts = [_interp_layout(frozen, codec, name) for name in cases]
        modes = np.concatenate([modes for modes, _ in layouts])
        assert {0, 1} <= set(modes.tolist())
        n_escaped = _interp_layout(frozen, codec, "escapes_2d")[1]
        assert n_escaped > 0.9 * frozen[f"{codec}/escapes_2d/input"].size

    def test_compress_byte_identical(self, frozen, codec):
        for name in _cases(frozen, codec):
            comp = _interp_codec(frozen, codec, name)
            arr = frozen[f"{codec}/{name}/input"]
            expected = frozen[f"{codec}/{name}/blob"].tobytes()
            if f"{codec}/{name}/rel_bound" in frozen.files:
                rel = float(frozen[f"{codec}/{name}/rel_bound"][0])
                assert comp.compress(arr, rel).data == expected, name
            else:
                abs_bound = float(frozen[f"{codec}/{name}/abs_bound"][0])
                with np.errstate(all="ignore"):
                    assert comp._compress_impl(arr, abs_bound) == expected, name

    def test_decompress_frozen_streams_pinned(self, frozen, codec):
        comp = get_compressor(codec)  # QoZ reads alpha/beta from the stream
        for name, digest in INTERP_DECODED_SHA256[codec].items():
            arr = frozen[f"{codec}/{name}/input"]
            blob = frozen[f"{codec}/{name}/blob"].tobytes()
            if f"{codec}/{name}/rel_bound" in frozen.files:
                recon = comp.decompress(blob)
                rel = float(frozen[f"{codec}/{name}/rel_bound"][0])
                span = float(arr.max()) - float(arr.min())
                err = np.abs(recon.astype(np.float64) - arr.astype(np.float64))
                assert err.max() <= rel * span, name
            else:
                abs_bound = float(frozen[f"{codec}/{name}/abs_bound"][0])
                with np.errstate(all="ignore"):
                    recon = comp._decompress_impl(blob, arr.shape, abs_bound)
            assert recon.dtype == arr.dtype and recon.shape == arr.shape, name
            assert hashlib.sha256(recon.tobytes()).hexdigest() == digest, name


class TestFixtureCheckTool:
    """``tools/gen_kernel_fixtures.py --check`` flags stream-format drift."""

    @pytest.fixture(scope="class")
    def tool(self):
        path = FIXTURES.parents[2] / "tools" / "gen_kernel_fixtures.py"
        spec = importlib.util.spec_from_file_location("gen_kernel_fixtures", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_check_passes_on_committed_fixtures(self, tool, capsys):
        assert tool.main(["--check"]) == 0
        assert "match" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tool, frozen, capsys):
        cases = {key: frozen[key] for key in frozen.files}
        blob = cases["zfp/smooth_3d/blob"].copy()
        blob[-1] ^= 1
        cases["zfp/smooth_3d/blob"] = blob
        assert tool.check(cases) == 1
        assert "zfp/smooth_3d/blob" in capsys.readouterr().out
        del cases["zfp/smooth_3d/blob"]
        assert tool.check(cases) == 1


class TestVectorizedAgainstScalarSemantics:
    """Property/fuzz coverage of the new batched paths."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2**15), min_size=0, max_size=400).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    def test_huffman_roundtrip_fuzz(self, syms):
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 22), st.integers(0, 2**32))
    def test_huffman_deep_alphabet_roundtrip(self, depth, seed):
        # Fibonacci frequencies force near-maximal code depth for the size.
        fib = [1, 1]
        while len(fib) < depth:
            fib.append(fib[-1] + fib[-2])
        syms = np.concatenate(
            [np.full(f, i, dtype=np.int64) for i, f in enumerate(fib)]
        )
        syms = syms[np.random.default_rng(seed).permutation(syms.size)]
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)
