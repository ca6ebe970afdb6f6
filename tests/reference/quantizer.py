"""The linear quantizer before the bit-trick zig-zag and the
``quantize_codes`` split.

:func:`reference_quantize` is ``LinearQuantizer.quantize`` as it was, kept
verbatim: arithmetic zig-zag folding, an explicit ``np.clip`` of the bin and
the outlier pool gathered in the same pass.  ``test_quantizer`` requires the
production quantizer to return the same codes, outliers and reconstruction
bytes on adversarial bit patterns, and ``test_batch_codec`` requires the
same of each piece of a stack quantized under per-piece bounds.
"""

from __future__ import annotations

import numpy as np


def reference_zigzag_encode(signed):
    signed = signed.astype(np.int64)
    return np.where(signed >= 0, 2 * signed, -2 * signed - 1).astype(np.int64)


def reference_zigzag_decode(unsigned):
    unsigned = unsigned.astype(np.int64)
    return np.where(unsigned % 2 == 0, unsigned // 2, -(unsigned + 1) // 2).astype(
        np.int64
    )


def reference_quantize(quantizer, values, predictions):
    """``LinearQuantizer.quantize`` before the bit-trick zig-zag and the
    ``quantize_codes`` split, kept verbatim."""
    values = np.asarray(values, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    width = 2.0 * quantizer.abs_bound
    residual = values - predictions
    with np.errstate(invalid="ignore", over="ignore"):
        raw = np.rint(residual / width)
    finite = np.isfinite(raw) & np.isfinite(predictions)
    raw = np.where(finite, raw, 0.0)
    raw = np.clip(raw, -(2**62), 2**62)
    signed = raw.astype(np.int64)
    recon = predictions + signed.astype(np.float64) * width
    folded = reference_zigzag_encode(signed) + 1
    within = (
        finite
        & (np.abs(recon - values) <= quantizer.abs_bound * (1 + 1e-12))
        & (folded < quantizer.max_code)
    )
    codes = np.where(within, folded, 0).astype(np.int64)
    outliers = values[~within].astype(np.float64)
    recon = np.where(within, recon, values)
    return codes, outliers, recon
