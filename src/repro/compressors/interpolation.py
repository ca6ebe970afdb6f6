"""Multilevel spline-interpolation prediction engine (SZ3 / QoZ core).

SZ3 predicts values hierarchically: anchor points on a coarse ``2^L`` grid
are stored exactly; every level then halves the grid spacing dimension by
dimension, predicting each new point by 1-D **linear** or **cubic** (4-point
spline) interpolation from already-reconstructed neighbours along the active
dimension.  Residuals are quantized immediately, so predictions always read
*reconstructed* values and the error bound never compounds.

The interpolator (linear vs cubic) is chosen dynamically per (level,
dimension) pass — the paper's "multi-dimensional dynamic spline
interpolation" — by comparing trial residuals; the choice bits travel in the
stream so the decoder replays the identical traversal.

QoZ reuses this engine with per-level error-bound tightening (see
:mod:`repro.compressors.qoz`), passed in via ``level_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.compressors.quantizer import LinearQuantizer

__all__ = [
    "InterpolationPlan",
    "anchor_count",
    "interp_decode",
    "interp_encode",
    "num_levels",
    "num_passes",
    "pass_plans",
]

LINEAR, CUBIC = 0, 1

_TINY = np.finfo(np.float64).tiny


def num_levels(shape: tuple[int, ...]) -> int:
    """Number of halving levels so the anchor grid has stride ``2**L``."""
    longest = max(shape)
    levels = 1
    while (1 << levels) < longest:
        levels += 1
    return levels


@dataclass(frozen=True)
class InterpolationPlan:
    """One (level, dimension) refinement pass of the traversal.

    Every grid is a tuple of basic slices, so indexing ``recon`` with it
    gives a strided view.  Along the active axis ``dim`` the targets sit at
    ``h, 3h, 5h, ...`` (``h = 2**(level - 1)``); their left neighbours are
    the grid shifted back by ``h``.  Only the first :attr:`n_right` targets
    have a right neighbour (``h`` ahead), and only targets ``1 ..
    n_right - 2`` have the full cubic stencil (``3h`` either side).
    """

    level: int
    dim: int
    #: The target grid and its shape.
    target: tuple[slice, ...]
    shape: tuple[int, ...]
    #: Left neighbours of every target.
    left: tuple[slice, ...]
    #: How many targets have a right neighbour, that prefix along ``dim``
    #: (indexing the target grid), and their right neighbours.
    n_right: int
    head: tuple[slice, ...]
    right: tuple[slice, ...]
    #: The cubic interior (indexing the target grid) and its stencil: far
    #: left, left, right and far right neighbours.
    interior: tuple[slice, ...]
    stencil: tuple[tuple[slice, ...], ...]


def _on_axis(grid: list[slice], d: int, first: int, count: int, step: int):
    """``grid`` with axis ``d`` replaced by ``count`` points from ``first``."""
    out = list(grid)
    out[d] = slice(first, first + (count - 1) * step + 1 if count else first, step)
    return tuple(out)


@lru_cache(maxsize=128)
def pass_plans(shape: tuple[int, ...]) -> tuple[InterpolationPlan, ...]:
    """Deterministic traversal shared by encoder and decoder, per shape."""
    ndim = len(shape)
    plans: list[InterpolationPlan] = []
    for level in range(num_levels(shape), 0, -1):
        stride = 1 << level
        h = stride >> 1
        for d in range(ndim):
            n = shape[d]
            count = len(range(h, n, stride))
            # Axes before ``d`` are already refined to spacing h; the
            # others are still at spacing 2h.
            steps = [h if k < d else stride for k in range(ndim)]
            grid = [slice(0, shape[k], steps[k]) for k in range(ndim)]
            tshape = tuple(
                count if k == d else -(-shape[k] // steps[k]) for k in range(ndim)
            )
            if 0 in tshape:
                continue
            n_right = (n - 1) // stride
            n_inner = max(n_right - 2, 0)
            local = [slice(None)] * ndim
            plans.append(
                InterpolationPlan(
                    level=level,
                    dim=d,
                    target=_on_axis(grid, d, h, count, stride),
                    shape=tshape,
                    left=_on_axis(grid, d, 0, count, stride),
                    n_right=n_right,
                    head=_on_axis(local, d, 0, n_right, 1),
                    right=_on_axis(grid, d, stride, n_right, stride),
                    interior=_on_axis(local, d, 1, n_inner, 1),
                    stencil=tuple(
                        _on_axis(grid, d, first, n_inner, stride)
                        for first in (0, stride, 2 * stride, 3 * stride)
                    ),
                )
            )
    return tuple(plans)


def num_passes(shape: tuple[int, ...]) -> int:
    """``len(pass_plans(shape))`` without building the plans, whose size
    grows with the square of the rank: a pass exists when its active axis
    is longer than ``h`` and no axis is empty."""
    if 0 in shape:
        return 0
    return sum(
        n > (1 << (level - 1)) for level in range(1, num_levels(shape) + 1) for n in shape
    )


def _anchor_grid(shape: tuple[int, ...]) -> tuple[slice, ...]:
    stride = 1 << num_levels(shape)
    return tuple(slice(0, n, stride) for n in shape)


def anchor_count(shape: tuple[int, ...]) -> int:
    """Number of exactly stored anchor points for ``shape``."""
    stride = 1 << num_levels(shape)
    return math.prod(-(-n // stride) for n in shape)


def _predict(
    recon: np.ndarray,
    plan: InterpolationPlan,
    mode: int,
    linear: np.ndarray | None = None,
) -> np.ndarray:
    """Interpolate the target grid of ``plan`` from reconstructed values.

    ``linear``, when given, is the LINEAR prediction of the same pass; a
    CUBIC prediction then starts from a copy of it instead of rebuilding it.
    Without a cubic interior the CUBIC prediction is the LINEAR one.
    """
    fresh = linear is None
    if fresh:
        linear = recon[plan.left].copy()
        if plan.n_right:
            head = linear[plan.head]
            np.add(head, recon[plan.right], out=head)
            head *= 0.5
    if mode == LINEAR or plan.n_right < 3:
        return linear
    cubic = linear if fresh else linear.copy()
    far_left, left, right, far_right = (recon[s] for s in plan.stencil)
    cubic[plan.interior] = (-far_left + 9.0 * left + 9.0 * right - far_right) / 16.0
    return cubic


def _quantizer(abs_bound, level_bound, level: int) -> LinearQuantizer:
    eb = abs_bound if level_bound is None else min(abs_bound, level_bound(level))
    return LinearQuantizer(max(eb, _TINY))


def interp_encode(
    values: np.ndarray,
    abs_bound: float,
    level_bound: Callable[[int], float] | None = None,
):
    """Encode with the multilevel interpolation predictor.

    Parameters
    ----------
    values:
        float64 array, any rank >= 1.
    abs_bound:
        Global absolute error bound.
    level_bound:
        Optional ``level -> abs_bound`` override (QoZ tightening).  Returned
        bounds are clamped to ``(0, abs_bound]``.

    Returns
    -------
    anchors : np.ndarray
        Exact float64 anchor values (traversal order).
    modes : list[int]
        Per-pass interpolator choice (LINEAR/CUBIC).
    codes : np.ndarray
        Concatenated quantization symbols (traversal order).
    outliers : np.ndarray
        Escape-coded exact values (traversal order).
    recon : np.ndarray
        The decoder-visible reconstruction.
    """
    shape = values.shape
    recon = np.zeros_like(values, dtype=np.float64)
    a_grid = _anchor_grid(shape)
    anchors = values[a_grid].astype(np.float64)
    recon[a_grid] = anchors

    modes: list[int] = []
    code_parts: list[np.ndarray] = []
    outlier_parts: list[np.ndarray] = []
    for plan in pass_plans(shape):
        target = values[plan.target]

        # The trial errors sum over the whole pass, as the mode bit records.
        pred_lin = _predict(recon, plan, LINEAR)
        pred_cub = _predict(recon, plan, CUBIC, pred_lin)
        err_lin = float(np.abs(target - pred_lin).sum())
        err_cub = (
            err_lin if pred_cub is pred_lin else float(np.abs(target - pred_cub).sum())
        )
        mode = CUBIC if err_cub < err_lin else LINEAR
        modes.append(mode)

        quantizer = _quantizer(abs_bound, level_bound, plan.level)
        q = quantizer.quantize(target, pred_cub if mode == CUBIC else pred_lin)
        recon[plan.target] = q.recon
        code_parts.append(q.codes.ravel())
        outlier_parts.append(q.outliers)

    codes = (
        np.concatenate(code_parts) if code_parts else np.zeros(0, dtype=np.int64)
    )
    outliers = (
        np.concatenate(outlier_parts) if outlier_parts else np.zeros(0)
    )
    return anchors.ravel(), modes, codes, outliers, recon


def interp_decode(
    shape: tuple[int, ...],
    abs_bound: float,
    anchors: np.ndarray,
    modes: list[int],
    codes: np.ndarray,
    outliers: np.ndarray,
    level_bound: Callable[[int], float] | None = None,
) -> np.ndarray:
    """Replay :func:`interp_encode`'s traversal to reconstruct the array."""
    plans = pass_plans(shape)
    if len(modes) != len(plans):
        raise ValueError(
            f"interpolation mode list length {len(modes)} != {len(plans)} passes"
        )
    recon = np.zeros(shape, dtype=np.float64)
    a_grid = _anchor_grid(shape)
    a_view = recon[a_grid]
    a_view[...] = np.asarray(anchors, dtype=np.float64).reshape(a_view.shape)

    code_pos = 0
    out_pos = 0
    for plan, mode in zip(plans, modes):
        n = math.prod(plan.shape)
        sub_codes = codes[code_pos : code_pos + n].reshape(plan.shape)
        code_pos += n
        n_esc = int((sub_codes == 0).sum())
        sub_out = outliers[out_pos : out_pos + n_esc]
        out_pos += n_esc

        pred = _predict(recon, plan, mode)
        quantizer = _quantizer(abs_bound, level_bound, plan.level)
        recon[plan.target] = quantizer.dequantize(sub_codes, pred, sub_out)
    if code_pos != codes.size:
        raise ValueError("interpolation code stream length mismatch")
    return recon
