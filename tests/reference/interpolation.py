"""The ``np.ix_`` traversal of the SZ3/QoZ interpolation engine.

:func:`reference_interp_encode` and :func:`reference_interp_decode` are the
engine the strided-view plans of :mod:`repro.compressors.interpolation`
replaced, kept verbatim: one coordinate vector per axis for every (level,
dimension) pass (:func:`reference_passes`) and fancy-index predictions
(:func:`reference_predict`).  ``test_interpolation`` requires the production
engine to return the same anchors, LINEAR/CUBIC choices, codes, outliers and
reconstruction bytes, and ``test_batch_codec`` requires the same of each
piece of a stack swept together.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.interpolation import CUBIC, LINEAR, num_levels
from repro.compressors.quantizer import LinearQuantizer


def reference_passes(shape, levels):
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


def reference_predict(recon, d, coords, mode, h):
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


def reference_bound(abs_bound, level_bound, level):
    eb = abs_bound if level_bound is None else min(abs_bound, level_bound(level))
    return max(eb, np.finfo(np.float64).tiny)


def reference_interp_encode(values, abs_bound, level_bound=None):
    shape = values.shape
    levels = num_levels(shape)
    recon = np.zeros_like(values, dtype=np.float64)
    a_coords = tuple(np.arange(0, n, 1 << levels, dtype=np.int64) for n in shape)
    anchors = values[np.ix_(*a_coords)].astype(np.float64).copy()
    recon[np.ix_(*a_coords)] = anchors
    modes, code_parts, outlier_parts = [], [], []
    for level, d, coords in reference_passes(shape, levels):
        h = 1 << (level - 1)
        quantizer = LinearQuantizer(reference_bound(abs_bound, level_bound, level))
        target = values[np.ix_(*coords)]
        pred_lin = reference_predict(recon, d, coords, LINEAR, h)
        pred_cub = reference_predict(recon, d, coords, CUBIC, h)
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


def reference_interp_decode(shape, abs_bound, anchors, modes, codes, outliers,
                      level_bound=None):
    levels = num_levels(shape)
    recon = np.zeros(shape, dtype=np.float64)
    a_coords = tuple(np.arange(0, n, 1 << levels, dtype=np.int64) for n in shape)
    recon[np.ix_(*a_coords)] = anchors.reshape(tuple(c.size for c in a_coords))
    code_pos = out_pos = 0
    for (level, d, coords), mode in zip(reference_passes(shape, levels), modes):
        h = 1 << (level - 1)
        quantizer = LinearQuantizer(reference_bound(abs_bound, level_bound, level))
        tshape = tuple(c.size for c in coords)
        n = int(np.prod(tshape))
        sub_codes = codes[code_pos : code_pos + n].reshape(tshape)
        code_pos += n
        n_esc = int((sub_codes == 0).sum())
        sub_out = outliers[out_pos : out_pos + n_esc]
        out_pos += n_esc
        pred = reference_predict(recon, d, coords, mode, h)
        recon[np.ix_(*coords)] = quantizer.dequantize(sub_codes, pred, sub_out)
    return recon
