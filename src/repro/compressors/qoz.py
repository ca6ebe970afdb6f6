"""QoZ: quality-oriented interpolation compressor (Liu et al., SC '22).

QoZ builds on SZ3's interpolation engine with two changes we reproduce:

1. **Per-level error-bound tightening.**  Coarse-level points are read many
   times as interpolation sources, so QoZ quantizes level ``l`` with
   ``eb_l = eb / min(alpha**(l-1), beta)`` — tighter at coarse levels.  This
   costs a little ratio but buys disproportionate reconstruction quality,
   which is why the paper observes QoZ holding PSNR nearly independent of the
   nominal bound (Fig. 9's outlier trend).
2. **Quality-target auto-tuning.**  :meth:`compress_to_psnr` searches the
   error bound so the reconstruction meets a requested PSNR, the paper's
   "optimize compression based on user-specified quality metrics".

``alpha``/``beta`` travel in the stream so decode replays identical bounds.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import CompressedBuffer, register_compressor
from repro.compressors.sz3 import SZ3
from repro.errors import CompressionError, DecompressionError

__all__ = ["QoZ"]


def _valid_params(alpha: float, beta: float) -> bool:
    return all(math.isfinite(p) and p >= 1.0 for p in (alpha, beta))


def _level_bound(abs_bound: float, alpha: float, beta: float):
    """Level ``l``'s bound: ``abs_bound / min(alpha**(l-1), beta)``."""

    def bound(level: int) -> float:
        return abs_bound / min(alpha ** max(level - 1, 0), beta)

    return bound


@register_compressor
class QoZ(SZ3):
    """SZ3 derivative with level-aware bounds and PSNR targeting."""

    name = "qoz"

    def __init__(self, alpha: float = 1.5, beta: float = 4.0):
        if not _valid_params(alpha, beta):
            raise CompressionError("qoz requires finite alpha >= 1 and beta >= 1")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _level_bound(self, abs_bound: float):
        return _level_bound(abs_bound, self.alpha, self.beta)

    # QoZ prepends its tuning parameters to the SZ3 stream.
    def _params(self) -> bytes:
        return struct.pack("<dd", self.alpha, self.beta)

    def _read_params(self, payload: bytes, abs_bound: float):
        if len(payload) < 16:
            raise DecompressionError("qoz stream truncated in alpha/beta")
        alpha, beta = struct.unpack_from("<dd", payload, 0)
        if not _valid_params(alpha, beta):
            raise DecompressionError(
                f"qoz stream stores alpha={alpha!r}, beta={beta!r}; both must "
                "be finite and >= 1"
            )
        # Decode with the *stored* parameters, not the instance's.
        return payload[16:], _level_bound(abs_bound, alpha, beta)

    # -- quality-target mode -------------------------------------------------

    def compress_to_psnr(
        self,
        array: np.ndarray,
        target_psnr: float,
        max_iters: int = 12,
        rel_lo: float = 1e-7,
        rel_hi: float = 1e-1,
    ) -> tuple[CompressedBuffer, float]:
        """Binary-search the relative bound to achieve ``target_psnr`` dB.

        Returns the compressed buffer and the achieved PSNR.  PSNR increases
        monotonically as the bound tightens, so bisection on ``log10(eps)``
        converges; the loosest bound meeting the target is kept (maximum
        ratio at acceptable quality).
        """
        from repro.metrics.quality import psnr  # local import to avoid cycle

        array = np.asarray(array)
        lo, hi = np.log10(rel_lo), np.log10(rel_hi)
        best: tuple[CompressedBuffer, float] | None = None
        for _ in range(max_iters):
            mid = 0.5 * (lo + hi)
            eps = 10.0**mid
            buf = self.compress(array, eps)
            achieved = psnr(array, self.decompress(buf))
            if achieved >= target_psnr:
                best = (buf, achieved)
                lo = mid  # try looser (higher ratio)
            else:
                hi = mid  # tighten
        if best is None:
            buf = self.compress(array, rel_lo)
            best = (buf, psnr(array, self.decompress(buf)))
        return best
