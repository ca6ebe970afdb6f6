"""The raster Lorenzo walk of SZ2's block predictor.

:func:`reference_lorenzo_encode` and :func:`reference_lorenzo_decode` are the
walks the hyperplane walk of :mod:`repro.compressors.predictors` replaced,
kept verbatim: one quantize call per in-block position, in raster order.
``test_predictors`` requires the production walk to return the same codes,
reconstruction and decode bytes on adversarial blocks, and
``test_batch_codec`` requires the same of blocks walked together under
per-block bounds.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.predictors import _LORENZO_TERMS
from repro.compressors.quantizer import zigzag_decode


def _block_positions(block):
    """Raster-order in-block multi-indices."""
    return list(np.ndindex(*block))


def reference_lorenzo_encode(blocks, quantizer):
    """The raster Lorenzo walk the hyperplane walk replaced, kept verbatim:
    one quantize call per in-block position."""
    block = blocks.shape[1:]
    ndim = len(block)
    terms = _LORENZO_TERMS[ndim]
    codes = np.zeros_like(blocks, dtype=np.int64)
    recon = np.zeros_like(blocks, dtype=np.float64)
    for pos in _block_positions(block):
        pred = np.zeros(blocks.shape[0], dtype=np.float64)
        for offset, sign in terms:
            nb = tuple(p - o for p, o in zip(pos, offset))
            if any(c < 0 for c in nb):
                continue
            pred += sign * recon[(slice(None),) + nb]
        col = blocks[(slice(None),) + pos]
        q = quantizer.quantize(col, pred)
        codes[(slice(None),) + pos] = q.codes
        recon[(slice(None),) + pos] = q.recon
    return codes, recon, codes == 0


def reference_lorenzo_decode(codes, outlier_values, outlier_slots, quantizer):
    """Raster-order decode, verbatim from before the hyperplane walk."""
    block = codes.shape[1:]
    ndim = len(block)
    terms = _LORENZO_TERMS[ndim]
    width = 2.0 * quantizer.abs_bound
    recon = np.zeros(codes.shape, dtype=np.float64)
    for pos in _block_positions(block):
        pred = np.zeros(codes.shape[0], dtype=np.float64)
        for offset, sign in terms:
            nb = tuple(p - o for p, o in zip(pos, offset))
            if any(c < 0 for c in nb):
                continue
            pred += sign * recon[(slice(None),) + nb]
        code_col = codes[(slice(None),) + pos]
        signed = zigzag_decode(np.maximum(code_col - 1, 0))
        vals = pred + signed.astype(np.float64) * width
        slots = outlier_slots[(slice(None),) + pos]
        esc = code_col == 0
        if esc.any():
            vals = np.where(esc, outlier_values[np.maximum(slots, 0)], vals)
        recon[(slice(None),) + pos] = vals
    return recon
