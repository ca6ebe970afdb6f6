"""Multilevel interpolation engine: traversal symmetry, bound safety, and
equivalence with the ``np.ix_`` reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.interpolation import (
    CUBIC,
    LINEAR,
    _anchor_grid,
    anchor_count,
    interp_decode,
    interp_encode,
    num_levels,
    num_passes,
    pass_plans,
)
from repro.compressors.quantizer import LinearQuantizer


class TestNumLevels:
    @pytest.mark.parametrize(
        "shape,levels", [((2,), 1), ((3,), 2), ((64,), 6), ((65,), 7), ((5, 33), 6)]
    )
    def test_levels(self, shape, levels):
        assert num_levels(shape) == levels


class TestRoundtrip:
    @pytest.mark.parametrize(
        "shape", [(17,), (33,), (12, 19), (16, 16), (9, 10, 11), (3, 5, 7, 9)]
    )
    def test_encode_decode_symmetry(self, shape, rng):
        values = np.cumsum(rng.standard_normal(shape), axis=-1)
        eb = 0.05
        anchors, modes, codes, outliers, recon = interp_encode(values, eb)
        decoded = interp_decode(shape, eb, anchors, modes, codes, outliers)
        np.testing.assert_allclose(decoded, recon, atol=1e-12)

    def test_bound_holds(self, rng):
        values = rng.standard_normal((20, 21)) * 7
        eb = 0.2
        _, _, _, _, recon = interp_encode(values, eb)
        assert np.abs(recon - values).max() <= eb * (1 + 1e-9)

    def test_smooth_data_codes_concentrate(self):
        x = np.linspace(0, 1, 65)
        values = np.sin(2 * np.pi * x)[:, None] * np.cos(np.pi * x)[None, :]
        _, _, codes, outliers, _ = interp_encode(values, 0.01)
        assert outliers.size == 0
        # Most codes should be the zero-residual symbol (1).
        assert (codes == 1).mean() > 0.5

    def test_mode_list_length_checked(self, rng):
        values = rng.standard_normal((9, 9))
        anchors, modes, codes, outliers, _ = interp_encode(values, 0.1)
        with pytest.raises(ValueError):
            interp_decode((9, 9), 0.1, anchors, modes[:-1], codes, outliers)

    def test_code_stream_length_checked(self, rng):
        values = rng.standard_normal((9, 9))
        anchors, modes, codes, outliers, _ = interp_encode(values, 0.1)
        with pytest.raises(ValueError):
            interp_decode(
                (9, 9), 0.1, anchors, modes, np.concatenate([codes, [1]]), outliers
            )

    def test_level_bound_tightening(self, rng):
        """A per-level bound function must be honoured on both sides."""
        values = np.cumsum(rng.standard_normal((33, 33)), axis=0)
        eb = 0.5

        def level_bound(level):
            return eb / (2.0 ** (level - 1))

        anchors, modes, codes, outliers, recon = interp_encode(
            values, eb, level_bound
        )
        decoded = interp_decode(
            (33, 33), eb, anchors, modes, codes, outliers, level_bound
        )
        np.testing.assert_allclose(decoded, recon, atol=1e-12)
        assert np.abs(recon - values).max() <= eb * (1 + 1e-9)

    def test_single_element_axis(self, rng):
        values = rng.standard_normal((1, 16))
        anchors, modes, codes, outliers, recon = interp_encode(values, 0.1)
        decoded = interp_decode((1, 16), 0.1, anchors, modes, codes, outliers)
        np.testing.assert_allclose(decoded, recon, atol=1e-12)


# -- reference equivalence -----------------------------------------------------


def _reference_passes(shape, levels):
    """The ``np.ix_`` traversal the strided-view plans replaced, verbatim:
    one coordinate vector per axis for every (level, dimension) pass."""
    ndim = len(shape)
    plans = []
    for level in range(levels, 0, -1):
        stride = 1 << level
        h = stride >> 1
        for d in range(ndim):
            coords = []
            empty = False
            for k in range(ndim):
                n = shape[k]
                if k < d:
                    c = np.arange(0, n, h, dtype=np.int64)
                elif k == d:
                    c = np.arange(h, n, stride, dtype=np.int64)
                else:
                    c = np.arange(0, n, stride, dtype=np.int64)
                if c.size == 0:
                    empty = True
                    break
                coords.append(c)
            if not empty:
                plans.append((level, d, tuple(coords)))
    return plans


def _axis_shape(ndim, d, n):
    s = [1] * ndim
    s[d] = n
    return tuple(s)


def _reference_predict(recon, d, coords, mode, h):
    """The fancy-index ``_predict`` the view-based one replaced, verbatim."""
    ndim = recon.ndim
    n_d = recon.shape[d]
    cd = coords[d]

    def grid(shift_coord):
        cs = list(coords)
        cs[d] = shift_coord
        return recon[np.ix_(*cs)]

    left = grid(cd - h)
    right_ok = cd + h < n_d
    right = grid(np.where(right_ok, cd + h, cd - h))
    ok = right_ok.reshape(_axis_shape(ndim, d, cd.size))
    linear = np.where(ok, 0.5 * (left + right), left)
    if mode == LINEAR:
        return linear

    cubic_ok = (cd - 3 * h >= 0) & (cd + 3 * h < n_d)
    if not cubic_ok.any():
        return linear
    far_left = grid(np.where(cubic_ok, cd - 3 * h, cd - h))
    far_right = grid(np.where(cubic_ok, cd + 3 * h, cd - h))
    cubic = (-far_left + 9.0 * left + 9.0 * right - far_right) / 16.0
    okc = cubic_ok.reshape(_axis_shape(ndim, d, cd.size))
    return np.where(okc & ok, cubic, linear)


def _reference_bound(abs_bound, level_bound, level):
    eb = abs_bound if level_bound is None else min(abs_bound, level_bound(level))
    return max(eb, np.finfo(np.float64).tiny)


def _reference_encode(values, abs_bound, level_bound=None):
    shape = values.shape
    levels = num_levels(shape)
    recon = np.zeros_like(values, dtype=np.float64)
    a_coords = tuple(np.arange(0, n, 1 << levels, dtype=np.int64) for n in shape)
    anchors = values[np.ix_(*a_coords)].astype(np.float64).copy()
    recon[np.ix_(*a_coords)] = anchors
    modes, code_parts, outlier_parts = [], [], []
    for level, d, coords in _reference_passes(shape, levels):
        h = 1 << (level - 1)
        quantizer = LinearQuantizer(_reference_bound(abs_bound, level_bound, level))
        target = values[np.ix_(*coords)]
        pred_lin = _reference_predict(recon, d, coords, LINEAR, h)
        pred_cub = _reference_predict(recon, d, coords, CUBIC, h)
        err_lin = float(np.abs(target - pred_lin).sum())
        err_cub = float(np.abs(target - pred_cub).sum())
        mode = CUBIC if err_cub < err_lin else LINEAR
        modes.append(mode)
        q = quantizer.quantize(target, pred_cub if mode == CUBIC else pred_lin)
        recon[np.ix_(*coords)] = q.recon
        code_parts.append(q.codes.ravel())
        outlier_parts.append(q.outliers)
    codes = np.concatenate(code_parts) if code_parts else np.zeros(0, np.int64)
    outliers = np.concatenate(outlier_parts) if outlier_parts else np.zeros(0)
    return anchors.ravel(), modes, codes, outliers, recon


def _reference_decode(shape, abs_bound, anchors, modes, codes, outliers,
                      level_bound=None):
    levels = num_levels(shape)
    recon = np.zeros(shape, dtype=np.float64)
    a_coords = tuple(np.arange(0, n, 1 << levels, dtype=np.int64) for n in shape)
    recon[np.ix_(*a_coords)] = anchors.reshape(tuple(c.size for c in a_coords))
    code_pos = out_pos = 0
    for (level, d, coords), mode in zip(_reference_passes(shape, levels), modes):
        h = 1 << (level - 1)
        quantizer = LinearQuantizer(_reference_bound(abs_bound, level_bound, level))
        tshape = tuple(c.size for c in coords)
        n = int(np.prod(tshape))
        sub_codes = codes[code_pos : code_pos + n].reshape(tshape)
        code_pos += n
        n_esc = int((sub_codes == 0).sum())
        sub_out = outliers[out_pos : out_pos + n_esc]
        out_pos += n_esc
        pred = _reference_predict(recon, d, coords, mode, h)
        recon[np.ix_(*coords)] = quantizer.dequantize(sub_codes, pred, sub_out)
    return recon


def _qoz_bound(abs_bound, alpha=1.5, beta=4.0):
    return lambda level: abs_bound / min(alpha ** max(level - 1, 0), beta)


def _assert_same_as_reference(values, abs_bound, level_bound):
    got = interp_encode(values, abs_bound, level_bound)
    ref = _reference_encode(values, abs_bound, level_bound)
    for name, a, b in zip(("anchors", "modes", "codes", "outliers", "recon"),
                          got, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    anchors, modes, codes, outliers, _ = ref
    decoded = interp_decode(values.shape, abs_bound, anchors, modes, codes,
                            outliers, level_bound)
    expected = _reference_decode(values.shape, abs_bound, anchors, modes, codes,
                                 outliers, level_bound)
    assert decoded.tobytes() == expected.tobytes()


_shapes = st.lists(st.integers(1, 19), min_size=1, max_size=4).filter(
    lambda s: max(s) > 1 and np.prod(s) <= 4000
)


class TestReferenceEquivalence:
    """The strided-view plans reproduce the ``np.ix_`` engine bit for bit:
    anchors, LINEAR/CUBIC choices, codes, outliers and reconstruction."""

    @settings(max_examples=120, deadline=None)
    @given(
        _shapes,
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-1, 1e-3, 1e-6, 1e-12]),
        st.booleans(),
        st.sampled_from(["walk", "noise", "smooth", "spiky"]),
    )
    def test_sampled_shapes(self, shape, seed, rel, qoz, kind):
        rng = np.random.default_rng(seed)
        shape = tuple(shape)
        if kind == "noise":
            values = rng.standard_normal(shape) * 10.0
        else:
            values = rng.standard_normal(shape)
            for axis in range(len(shape)):
                values = np.cumsum(values, axis=axis)
            if kind == "smooth":
                values = np.sin(values * 0.05)
            elif kind == "spiky":
                values.flat[rng.integers(0, values.size, 5)] += 1e6
        span = float(values.max() - values.min()) or 1.0
        eb = rel * span
        _assert_same_as_reference(values, eb, _qoz_bound(eb) if qoz else None)

    @pytest.mark.parametrize(
        "shape",
        [(2,), (3,), (4,), (7,), (8,), (9,), (129,), (1, 17), (17, 1), (6, 6),
         (5, 1, 9), (2, 2, 2, 2), (1, 1, 1, 5), (33, 3, 2)],
    )
    @pytest.mark.parametrize("qoz", [False, True])
    def test_edge_shapes(self, shape, qoz, rng):
        values = np.cumsum(rng.standard_normal(shape), axis=-1)
        _assert_same_as_reference(values, 1e-3, _qoz_bound(1e-3) if qoz else None)

    def test_nonfinite_values(self, rng):
        values = np.cumsum(rng.standard_normal((11, 13)), axis=1)
        values.flat[[3, 40, 77, 100]] = [np.nan, np.inf, -np.inf, 1e300]
        with np.errstate(all="ignore"):
            _assert_same_as_reference(values, 1e-2, None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    def test_pass_count_without_plans(self, shape):
        assert num_passes(tuple(shape)) == len(pass_plans(tuple(shape)))

    def test_plans_cover_every_point_once(self):
        shape = (5, 1, 9, 6)
        seen = np.zeros(shape, dtype=np.int64)
        seen[_anchor_grid(shape)] += 1
        for plan in pass_plans(shape):
            seen[plan.target] += 1
        assert (seen == 1).all()
        assert seen[_anchor_grid(shape)].size == anchor_count(shape)
        assert pass_plans(shape) is pass_plans(shape)
