"""Error-bounded linear-scale quantizer with outlier escape.

The SZ-family codecs predict each value and quantize the prediction residual
onto a uniform grid of width ``2 * abs_bound`` centred on the prediction:

    code  = round(residual / (2 * abs_bound))
    recon = prediction + code * (2 * abs_bound)

which guarantees ``|recon - original| <= abs_bound`` pointwise whenever the
code fits in the configured code range.  Residuals too large for the range
(or non-finite predictions) take the *outlier escape*: the original value is
stored verbatim (float64) and the reconstruction is exact.

Codes are stored zig-zag folded (0, -1, +1, -2, ...) + 1, with 0 reserved for
the outlier escape, mirroring SZ's "unpredictable" marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizerResult", "LinearQuantizer", "zigzag_encode", "zigzag_decode"]


def zigzag_encode(signed: np.ndarray) -> np.ndarray:
    """Map signed integers to non-negative: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    signed = np.asarray(signed, dtype=np.int64)
    return (signed << 1) ^ (signed >> 63)


def zigzag_decode(unsigned: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    unsigned = np.asarray(unsigned, dtype=np.int64)
    return (unsigned >> 1) ^ -(unsigned & 1)


@dataclass(frozen=True)
class QuantizerResult:
    """Output of one quantization pass.

    Attributes
    ----------
    codes:
        Non-negative symbol per element; 0 marks an outlier, ``k >= 1`` is the
        zig-zag folded quantization bin ``k - 1``.
    outliers:
        Exact float64 values of outlier elements, in element order.
    recon:
        Reconstructed values (what the decompressor will reproduce), same
        shape/dtype float64 as the input residual's base.
    """

    codes: np.ndarray
    outliers: np.ndarray
    recon: np.ndarray


class LinearQuantizer:
    """Uniform quantizer with bin width ``2 * abs_bound`` and outlier escape.

    Parameters
    ----------
    abs_bound:
        Absolute error bound (already converted from the value-range relative
        bound by the caller): a float, or an array that broadcasts against
        the quantized values, so pieces coded in one pass keep their own
        bounds.  Must be positive; callers handle the ``abs_bound == 0``
        (lossless/constant) case themselves.
    max_code:
        Largest zig-zag symbol allowed (bounds the Huffman alphabet).  SZ uses
        a radius of 2^15 by default; we keep the same default.
    """

    def __init__(self, abs_bound: float, max_code: int = 65536):
        if isinstance(abs_bound, np.ndarray) and abs_bound.ndim:
            bad = (abs_bound <= 0).any()
        else:
            abs_bound = float(abs_bound)
            bad = abs_bound <= 0
        if bad:
            raise ValueError("abs_bound must be positive")
        if max_code < 2:
            raise ValueError("max_code must be at least 2")
        self.abs_bound = abs_bound
        self.max_code = int(max_code)

    def quantize(self, values: np.ndarray, predictions: np.ndarray) -> QuantizerResult:
        """Quantize ``values - predictions``; see class docstring."""
        values = np.asarray(values, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.float64)
        codes, recon = self.quantize_codes(values, predictions)
        return QuantizerResult(codes=codes, outliers=values[codes == 0], recon=recon)

    def quantize_codes(
        self, values: np.ndarray, predictions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`quantize` without the outlier pool, for float64 inputs:
        returns ``(codes, recon)``.  Hot loops call this once per step."""
        width = 2.0 * self.abs_bound
        with np.errstate(invalid="ignore", over="ignore"):
            raw = np.rint((values - predictions) / width)
        # A non-finite prediction always makes the residual non-finite.
        finite = np.isfinite(raw)
        # Clip the bin before the cast and the fold: a bin of magnitude
        # ``limit`` already folds past ``max_code`` (so it escapes like every
        # larger one), and no folded code can wrap int64.
        raw = np.where(finite, raw, 0.0)
        limit = min(self.max_code, 2**61)
        np.maximum(raw, -limit, out=raw)
        np.minimum(raw, limit, out=raw)
        signed = raw.astype(np.int64)
        recon = predictions + signed * width
        folded = zigzag_encode(signed) + 1
        within = (
            finite
            & (np.abs(recon - values) <= self.abs_bound * (1 + 1e-12))
            & (folded < self.max_code)
        )
        return np.where(within, folded, 0), np.where(within, recon, values)

    def dequantize(
        self, codes: np.ndarray, predictions: np.ndarray, outliers: np.ndarray
    ) -> np.ndarray:
        """Reconstruct values from codes, predictions and the outlier pool.

        ``outliers`` must contain exactly ``(codes == 0).sum()`` values in
        element order.
        """
        codes = np.asarray(codes, dtype=np.int64)
        predictions = np.asarray(predictions, dtype=np.float64)
        width = 2.0 * self.abs_bound
        signed = zigzag_decode(np.maximum(codes - 1, 0))
        recon = predictions + signed.astype(np.float64) * width
        outlier_mask = codes == 0
        n_out = int(outlier_mask.sum())
        if n_out != np.asarray(outliers).size:
            raise ValueError(
                f"outlier count mismatch: {n_out} escapes vs {np.asarray(outliers).size} stored"
            )
        if n_out:
            recon = recon.copy()
            recon[outlier_mask] = np.asarray(outliers, dtype=np.float64)
        return recon
