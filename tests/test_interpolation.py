"""Multilevel interpolation engine: traversal symmetry, bound safety, and
equivalence with the ``np.ix_`` reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.interpolation import (
    _anchor_grid,
    anchor_count,
    interp_decode,
    interp_encode,
    num_levels,
    num_passes,
    pass_plans,
)

from reference.interpolation import reference_interp_decode, reference_interp_encode


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


def _qoz_bound(abs_bound, alpha=1.5, beta=4.0):
    return lambda level: abs_bound / min(alpha ** max(level - 1, 0), beta)


def _assert_same_as_reference(values, abs_bound, level_bound):
    got = interp_encode(values, abs_bound, level_bound)
    ref = reference_interp_encode(values, abs_bound, level_bound)
    for name, a, b in zip(("anchors", "modes", "codes", "outliers", "recon"),
                          got, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    anchors, modes, codes, outliers, _ = ref
    decoded = interp_decode(values.shape, abs_bound, anchors, modes, codes,
                            outliers, level_bound)
    expected = reference_interp_decode(values.shape, abs_bound, anchors, modes, codes,
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
