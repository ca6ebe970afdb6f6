"""Linear quantizer: the error-bound contract and the outlier escape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.quantizer import (
    LinearQuantizer,
    zigzag_decode,
    zigzag_encode,
)

from reference.quantizer import (
    reference_quantize,
    reference_zigzag_decode,
    reference_zigzag_encode,
)


class TestZigzag:
    def test_known_values(self):
        signed = np.array([0, -1, 1, -2, 2, -3])
        np.testing.assert_array_equal(zigzag_encode(signed), [0, 1, 2, 3, 4, 5])

    def test_roundtrip(self):
        signed = np.arange(-1000, 1000)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(signed)), signed)


class TestQuantizer:
    def test_bound_holds_for_quantized_values(self, rng):
        q = LinearQuantizer(0.5)
        values = rng.uniform(-100, 100, size=5000)
        preds = values + rng.uniform(-40, 40, size=5000)
        res = q.quantize(values, preds)
        assert np.all(np.abs(res.recon - values) <= 0.5 * (1 + 1e-9))

    def test_outliers_reproduce_exactly(self, rng):
        q = LinearQuantizer(1e-6, max_code=16)  # tiny range forces escapes
        values = rng.uniform(-1e6, 1e6, size=200)
        preds = np.zeros(200)
        res = q.quantize(values, preds)
        assert (res.codes == 0).any()
        np.testing.assert_array_equal(res.recon[res.codes == 0], values[res.codes == 0])

    def test_roundtrip_with_dequantize(self, rng):
        q = LinearQuantizer(0.25)
        values = rng.standard_normal(1000) * 10
        preds = np.zeros(1000)
        res = q.quantize(values, preds)
        recon = q.dequantize(res.codes, preds, res.outliers)
        np.testing.assert_allclose(recon, res.recon)

    def test_nonfinite_prediction_escapes(self):
        q = LinearQuantizer(0.1)
        values = np.array([1.0, 2.0])
        preds = np.array([np.inf, 1.9])
        res = q.quantize(values, preds)
        assert res.codes[0] == 0
        assert res.recon[0] == 1.0
        assert res.codes[1] != 0

    def test_outlier_count_mismatch_raises(self):
        q = LinearQuantizer(0.1)
        res = q.quantize(np.array([100.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            q.dequantize(res.codes, np.array([0.0]), np.zeros(5))

    def test_code_zero_reserved(self, rng):
        q = LinearQuantizer(0.5)
        values = rng.uniform(-5, 5, 100)
        res = q.quantize(values, np.zeros(100))
        assert res.codes.min() >= 1  # no escapes needed here

    def test_bins_past_two_to_the_62_escape(self):
        # Such a bin's folded code used to wrap int64 and come out negative.
        q = LinearQuantizer(2.0**-63)
        values = np.array([1.0, -1.0, 0.0, 2.0**-62])
        res = q.quantize(values, np.zeros(4))
        np.testing.assert_array_equal(res.codes, [0, 0, 1, 3])
        np.testing.assert_array_equal(res.recon, values)
        np.testing.assert_array_equal(q.dequantize(res.codes, np.zeros(4), res.outliers), values)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinearQuantizer(0.0)
        with pytest.raises(ValueError):
            LinearQuantizer(1.0, max_code=1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1e-9, 1e6),
        st.lists(
            st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=100,
        ),
    )
    def test_bound_property(self, bound, raw):
        values = np.array(raw)
        q = LinearQuantizer(bound)
        res = q.quantize(values, np.zeros_like(values))
        # Contract: every element within bound OR stored exactly.
        err = np.abs(res.recon - values)
        ok = (err <= bound * (1 + 1e-9)) | (res.codes == 0)
        assert ok.all()
        recon = q.dequantize(res.codes, np.zeros_like(values), res.outliers)
        np.testing.assert_array_equal(recon, res.recon)


# -- reference equivalence -----------------------------------------------------


_EDGE_BITS = np.array(
    [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
     0x7FF8000000000000, 0xFFF8000000000001, 0x7FF4000000000123,
     0x7FEFFFFFFFFFFFFF, 0x0000000000000001, 0x43D0000000000000],
    dtype=np.uint64,
)


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64))
    def test_zigzag_over_all_int64(self, xs):
        x = np.array(xs + [-(2**63), 2**63 - 1, -(2**62), 2**62], dtype=np.int64)
        with np.errstate(over="ignore"):
            assert zigzag_encode(x).tobytes() == reference_zigzag_encode(x).tobytes()
        assert zigzag_decode(x).tobytes() == reference_zigzag_decode(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 1e3, 1e300]),
        st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_quantize_bytes(self, seed, bound, density):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-300, 300)
        values = rng.standard_normal(200) * scale
        noise = rng.standard_normal(200) * bound * 10.0 ** rng.integers(-2, 8)
        predictions = values + noise
        for arr in (values, predictions):
            hit = rng.random(arr.size) < density
            arr[hit] = rng.choice(_EDGE_BITS, int(hit.sum())).view(np.float64)
        q = LinearQuantizer(bound, max_code=int(rng.choice([2, 1000, 65536])))
        with np.errstate(all="ignore"):
            got = q.quantize(values, predictions)
            codes, outliers, recon = reference_quantize(q, values, predictions)
        assert got.codes.dtype == codes.dtype and (got.codes == codes).all()
        assert got.outliers.tobytes() == outliers.tobytes()
        assert got.recon.tobytes() == recon.tobytes()


@pytest.mark.parametrize("codec", ["sz2", "sz3", "qoz"])
def test_codecs_round_trip_bounds_whose_bins_pass_two_to_the_62(codec):
    from repro.compressors import get_compressor

    data = np.array([1.0, 0.0] * 64)
    comp = get_compressor(codec)
    np.testing.assert_array_equal(comp.decompress(comp.compress(data, 2.0**-62)), data)
