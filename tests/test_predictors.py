"""SZ2 predictors: Lorenzo encode/decode symmetry and regression fits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.predictors import (
    _LORENZO_TERMS,
    estimate_lorenzo_error,
    lorenzo_decode_blocks,
    lorenzo_encode_blocks,
    regression_fit,
    regression_predict,
)
from repro.compressors.quantizer import LinearQuantizer

from reference.predictors import reference_lorenzo_decode, reference_lorenzo_encode


def _decode_slots(codes):
    flat = codes.reshape(-1)
    esc = flat == 0
    return np.where(esc, np.cumsum(esc) - 1, -1).reshape(codes.shape)


class TestLorenzo:
    def test_encode_decode_symmetry_3d(self, rng):
        blocks = np.cumsum(rng.standard_normal((5, 6, 6, 6)), axis=1)
        q = LinearQuantizer(0.05)
        codes, recon, _ = lorenzo_encode_blocks(blocks, q)
        outliers = blocks.reshape(-1)[codes.reshape(-1) == 0]
        decoded = lorenzo_decode_blocks(codes, outliers, _decode_slots(codes), q)
        np.testing.assert_allclose(decoded, recon, atol=1e-12)

    def test_error_bound_holds(self, rng):
        blocks = rng.standard_normal((4, 6, 6, 6)) * 10
        q = LinearQuantizer(0.5)
        codes, recon, _ = lorenzo_encode_blocks(blocks, q)
        assert np.abs(recon - blocks).max() <= 0.5 * (1 + 1e-9)

    def test_smooth_blocks_mostly_small_codes(self):
        x = np.linspace(0, 1, 6)
        block = (x[:, None, None] + x[None, :, None] + x[None, None, :])[None]
        q = LinearQuantizer(0.01)
        codes, _, _ = lorenzo_encode_blocks(block, q)
        # Perfect-plane data is exactly Lorenzo-predictable after warmup.
        assert np.median(codes) == 1  # zigzag(0) + 1

    def test_1d_and_2d_ranks(self, rng):
        for shape in [(3, 32), (3, 8, 8)]:
            blocks = np.cumsum(rng.standard_normal(shape), axis=-1)
            q = LinearQuantizer(0.1)
            codes, recon, _ = lorenzo_encode_blocks(blocks, q)
            outliers = blocks.reshape(-1)[codes.reshape(-1) == 0]
            decoded = lorenzo_decode_blocks(codes, outliers, _decode_slots(codes), q)
            np.testing.assert_allclose(decoded, recon, atol=1e-12)

    def test_zero_blocks(self):
        q = LinearQuantizer(0.1)
        for block in [(128,), (16, 16), (6, 6, 6), (2, 3, 4, 5)]:
            empty = np.zeros((0,) + block)
            codes, recon, mask = lorenzo_encode_blocks(empty, q)
            assert codes.shape == recon.shape == mask.shape == empty.shape
            decoded = lorenzo_decode_blocks(
                codes, np.zeros(0), np.zeros(empty.shape, dtype=np.int64), q
            )
            assert decoded.shape == empty.shape


class TestRegression:
    def test_fits_exact_plane(self):
        i, j, k = np.meshgrid(np.arange(6), np.arange(6), np.arange(6), indexing="ij")
        plane = (2.0 + 3.0 * i - 1.5 * j + 0.5 * k)[None].astype(np.float64)
        coeffs = regression_fit(plane)
        pred = regression_predict(coeffs, (6, 6, 6))
        np.testing.assert_allclose(pred, plane, rtol=1e-4)

    def test_prediction_shape(self, rng):
        blocks = rng.standard_normal((7, 6, 6, 6))
        coeffs = regression_fit(blocks)
        assert coeffs.shape == (7, 4)
        assert regression_predict(coeffs, (6, 6, 6)).shape == (7, 6, 6, 6)

    def test_float32_storage_is_consistent(self, rng):
        """Prediction from stored (f32) coefficients is reproducible."""
        blocks = rng.standard_normal((3, 6, 6, 6))
        coeffs = regression_fit(blocks)
        p1 = regression_predict(coeffs, (6, 6, 6))
        p2 = regression_predict(coeffs.copy(), (6, 6, 6))
        np.testing.assert_array_equal(p1, p2)


class TestSelectionEstimate:
    def test_plane_favours_regression_noise_favours_lorenzo_estimate(self, rng):
        i, j, k = np.meshgrid(np.arange(6), np.arange(6), np.arange(6), indexing="ij")
        plane = (10 + 2.0 * i + j - k)[None].astype(np.float64)
        est_plane = estimate_lorenzo_error(plane)
        # A smooth random walk is exactly what Lorenzo handles.
        walk = np.cumsum(rng.standard_normal((1, 6, 6, 6)) * 0.01, axis=1)
        reg_err_walk = np.abs(
            walk - regression_predict(regression_fit(walk), (6, 6, 6))
        ).mean()
        assert estimate_lorenzo_error(walk)[0] < reg_err_walk + 1.0
        assert est_plane[0] >= 0.0


# -- reference equivalence -----------------------------------------------------


#: The stencil table as it was written out by hand for ranks 1-3.
_HAND_WRITTEN_TERMS = {
    1: [((1,), +1.0)],
    2: [((1, 0), +1.0), ((0, 1), +1.0), ((1, 1), -1.0)],
    3: [
        ((1, 0, 0), +1.0),
        ((0, 1, 0), +1.0),
        ((0, 0, 1), +1.0),
        ((1, 1, 0), -1.0),
        ((1, 0, 1), -1.0),
        ((0, 1, 1), -1.0),
        ((1, 1, 1), +1.0),
    ],
}


#: Bit patterns the walk must carry through untouched: signed zeros,
#: infinities, NaNs with distinct payloads (quiet, negative, signalling),
#: the largest finite and the smallest subnormal values.
_SPECIAL_BITS = np.array(
    [
        0x0000000000000000, 0x8000000000000000,
        0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF8000000000000, 0xFFF8000000000001,
        0x7FF4000000000123, 0x7FEFFFFFFFFFFFFF,
        0xFFEFFFFFFFFFFFFF, 0x0000000000000001,
    ],
    dtype=np.uint64,
)


@st.composite
def _adversarial_blocks(draw):
    ndim = draw(st.integers(1, 4))
    side_max = {1: 40, 2: 10, 3: 6, 4: 4}[ndim]
    sides = st.lists(st.integers(1, side_max), min_size=ndim, max_size=ndim)
    block = tuple(draw(sides))
    n_blocks = draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    n_blocks = min(n_blocks, max(1, 200_000 // int(np.prod(block))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_blocks,) + block
    kind = draw(st.sampled_from(["walk", "noise", "huge", "zeros"]))
    if kind == "walk":
        values = np.cumsum(rng.standard_normal(shape), axis=1)
    elif kind == "noise":
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
    elif kind == "huge":
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(250, 308, shape)
    else:
        values = np.zeros(shape)
        values[rng.random(shape) < 0.5] = -0.0
    density = draw(st.sampled_from([0.0, 0.001, 0.05, 0.5]))
    hit = rng.random(shape) < density
    specials = rng.choice(_SPECIAL_BITS, int(hit.sum())).view(np.float64)
    values[hit] = specials
    bound = draw(st.sampled_from([1e-12, 1e-3, 0.5, 1e3, 1e300]))
    return values, LinearQuantizer(bound)


class TestHyperplaneMatchesRasterWalk:
    """The hyperplane walk is bit-identical to the raster walk: codes are
    equal and recon/decode bytes match, so ±0.0 and NaN payloads count."""

    def test_stencil_table_matches_hand_written_ranks(self):
        for ndim, terms in _HAND_WRITTEN_TERMS.items():
            assert _LORENZO_TERMS[ndim] == terms

    @settings(max_examples=60, deadline=None)
    @given(_adversarial_blocks())
    def test_encode_and_decode_match_reference(self, case):
        values, quantizer = case
        with np.errstate(all="ignore"):
            codes, recon, mask = lorenzo_encode_blocks(values, quantizer)
            ref_codes, ref_recon, ref_mask = reference_lorenzo_encode(values, quantizer)
            assert codes.shape == ref_codes.shape
            assert (codes == ref_codes).all()
            assert (mask == ref_mask).all()
            assert recon.tobytes() == ref_recon.tobytes()

            outliers = values.reshape(-1)[codes.reshape(-1) == 0]
            slots = _decode_slots(codes)
            decoded = lorenzo_decode_blocks(codes, outliers, slots, quantizer)
            expected = reference_lorenzo_decode(codes, outliers, slots, quantizer)
        assert decoded.shape == values.shape
        assert decoded.tobytes() == expected.tobytes()

    def test_sz2_block_shapes_at_scale(self, rng):
        q = LinearQuantizer(1e-3)
        for block in [(128,), (16, 16), (6, 6, 6)]:
            values = np.cumsum(rng.standard_normal((3000,) + block), axis=1)
            values[:, 0] = 0.0
            values[::7, -1] = -0.0
            codes, recon, _ = lorenzo_encode_blocks(values, q)
            ref_codes, ref_recon, _ = reference_lorenzo_encode(values, q)
            assert (codes == ref_codes).all() and recon.tobytes() == ref_recon.tobytes()
