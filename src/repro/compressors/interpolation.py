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

The engine codes a batch of equal-shaped pieces in one sweep: the pieces sit
on a leading axis, every plan slice starts with an ``Ellipsis`` so it
indexes one piece or the whole stack alike, and each piece keeps its own
bound, level bounds and per-pass LINEAR/CUBIC choice.  Every step is
elementwise or a per-piece reduction, so each piece codes exactly as it
would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.compressors.base import piece_bounds
from repro.compressors.quantizer import LinearQuantizer, zigzag_decode

__all__ = [
    "InterpolationPlan",
    "anchor_count",
    "interp_decode",
    "interp_decode_many",
    "interp_encode",
    "interp_encode_many",
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

    Every grid is an ``Ellipsis`` and one basic slice per axis, so indexing
    ``recon``, or a stack of pieces on a leading axis, with it gives a
    strided view.  Along the active axis ``dim`` the targets sit at
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
    """``grid`` with axis ``d`` replaced by ``count`` points from ``first``,
    behind a leading ``Ellipsis``."""
    out = list(grid)
    out[d] = slice(first, first + (count - 1) * step + 1 if count else first, step)
    return (Ellipsis, *out)


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


def _anchor_grid(shape: tuple[int, ...]) -> tuple:
    stride = 1 << num_levels(shape)
    return (Ellipsis, *(slice(0, n, stride) for n in shape))


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


def _bound_of_level(abs_bounds, level_bounds, ndim: int):
    """``level -> bound`` of every level: one bound per piece, broadcast
    over a ``(pieces, *grid)`` stack (a float when the pieces agree)."""
    cache: dict[int, object] = {}

    def bound(level: int):
        if level not in cache:
            ebs = [
                max(eb if lb is None else min(eb, lb(level)), _TINY)
                for eb, lb in zip(abs_bounds, level_bounds)
            ]
            cache[level] = piece_bounds(ebs, 1, (1,) * ndim)
        return cache[level]

    return bound


def _choose(cubic: list, pred_cub: np.ndarray, pred_lin: np.ndarray):
    """Each piece's prediction under its own per-pass choice."""
    if all(cubic):
        return pred_cub
    if not any(cubic):
        return pred_lin
    pick = np.array(cubic).reshape((-1,) + (1,) * (pred_lin.ndim - 1))
    return np.where(pick, pred_cub, pred_lin)


def interp_encode_many(
    values: np.ndarray,
    abs_bounds,
    level_bounds=None,
):
    """Encode a ``(pieces, *shape)`` stack with the multilevel interpolation
    predictor, each piece under its own bounds.

    Parameters
    ----------
    values:
        float64 array; axis 0 indexes the pieces, the rest is any rank >= 1.
    abs_bounds:
        Per-piece global absolute error bound.
    level_bounds:
        Optional per-piece ``level -> abs_bound`` override (QoZ tightening),
        ``None`` entries for none.  Returned bounds are clamped to
        ``(0, abs_bound]``.

    Returns
    -------
    anchors : np.ndarray
        ``(pieces, n_anchors)`` exact float64 anchor values (traversal order).
    modes : np.ndarray
        ``(pieces, n_passes)`` per-pass interpolator choice (LINEAR/CUBIC).
    codes : np.ndarray
        ``(pieces, n_codes)`` quantization symbols (traversal order).
    outliers : list[np.ndarray]
        Per piece, the escape-coded exact values (traversal order).
    recon : np.ndarray
        The decoder-visible reconstruction of the stack.
    """
    n, *shape = values.shape
    shape = tuple(shape)
    bound = _bound_of_level(abs_bounds, level_bounds or [None] * n, len(shape))
    recon = np.zeros_like(values, dtype=np.float64)
    a_grid = _anchor_grid(shape)
    anchors = values[a_grid].astype(np.float64)
    recon[a_grid] = anchors

    linear = [LINEAR] * n
    modes: list[list] = []
    code_parts: list[np.ndarray] = []
    escapes: list[tuple[np.ndarray, np.ndarray]] = []
    for plan in pass_plans(shape):
        target = values[plan.target]

        # The trial errors sum over each piece's whole pass, as its mode bit
        # records: one pairwise sum per contiguous row, as for one array.
        pred_lin = _predict(recon, plan, LINEAR)
        pred_cub = _predict(recon, plan, CUBIC, pred_lin)
        if pred_cub is pred_lin:
            cubic = linear
        else:
            err_lin = np.abs(target - pred_lin).reshape(n, -1).sum(axis=1)
            err_cub = np.abs(target - pred_cub).reshape(n, -1).sum(axis=1)
            cubic = (err_cub < err_lin).tolist()
        modes.append(cubic)

        codes, recon[plan.target] = LinearQuantizer(bound(plan.level)).quantize_codes(
            target, _choose(cubic, pred_cub, pred_lin)
        )
        codes = codes.reshape(n, -1)
        code_parts.append(codes)
        esc = codes == 0
        if esc.any():
            escapes.append((np.nonzero(esc)[0], target.reshape(n, -1)[esc]))

    codes = (
        np.concatenate(code_parts, axis=1) if code_parts
        else np.zeros((n, 0), dtype=np.int64)
    )
    modes = np.array(modes, dtype=np.int64).reshape(-1, n).T
    # Each pass's escapes are piece-major; a stable sort on the piece keeps
    # every piece's values in traversal order.
    if escapes:
        rows, pool = (np.concatenate(part) for part in zip(*escapes))
        pool = pool[np.argsort(rows, kind="stable")]
        outliers = np.split(pool, np.cumsum(np.bincount(rows, minlength=n))[:-1])
    else:
        outliers = [np.zeros(0)] * n
    return anchors.reshape(n, -1), modes, codes, outliers, recon


def interp_encode(
    values: np.ndarray,
    abs_bound: float,
    level_bound: Callable[[int], float] | None = None,
):
    """:func:`interp_encode_many` of one array: returns ``(anchors, modes,
    codes, outliers, recon)`` with ``modes`` a list of ints."""
    anchors, modes, codes, outliers, recon = interp_encode_many(
        values[None], [abs_bound], [level_bound]
    )
    return anchors[0], modes[0].tolist(), codes[0], outliers[0], recon[0]


def interp_decode_many(
    shape: tuple[int, ...],
    abs_bounds,
    anchors: np.ndarray,
    modes: np.ndarray,
    codes: np.ndarray,
    outliers,
    level_bounds=None,
) -> np.ndarray:
    """Replay :func:`interp_encode_many`'s traversal for a stack of pieces
    of ``shape``; ``anchors``, ``modes`` and ``codes`` have one row per
    piece and ``outliers`` one pool per piece."""
    plans = pass_plans(shape)
    n = codes.shape[0]
    if modes.shape[1] != len(plans):
        raise ValueError(
            f"interpolation mode list length {modes.shape[1]} != {len(plans)} passes"
        )
    if codes.shape[1] != math.prod(shape) - anchor_count(shape):
        raise ValueError("interpolation code stream length mismatch")
    bound = _bound_of_level(abs_bounds, level_bounds or [None] * n, len(shape))
    # Residuals do not depend on the traversal: dequantize every code's bin
    # index at once (escapes read bin 0 until their pool value lands).
    esc = codes == 0
    signed = zigzag_decode(np.maximum(codes - 1, 0)).astype(np.float64)
    if esc.any():
        if esc.sum(axis=1).tolist() != [len(pool) for pool in outliers]:
            raise ValueError("interpolation outlier count mismatch")
        # Global escape slots: the pools are concatenated in piece order.
        pool = np.concatenate(outliers)
        slots = np.cumsum(esc).reshape(esc.shape) - 1
    elif any(len(pool) for pool in outliers):
        raise ValueError("interpolation outlier count mismatch")
    else:
        slots = None

    recon = np.zeros((n, *shape), dtype=np.float64)
    a_grid = _anchor_grid(shape)
    a_view = recon[a_grid]
    a_view[...] = np.asarray(anchors, dtype=np.float64).reshape(a_view.shape)

    pos = 0
    for plan, cubic in zip(plans, modes.T.tolist()):
        size = math.prod(plan.shape)
        if all(cubic) or not any(cubic):
            pred = _predict(recon, plan, CUBIC if cubic[0] else LINEAR)
        else:
            pred_lin = _predict(recon, plan, LINEAR)
            pred = _choose(cubic, _predict(recon, plan, CUBIC, pred_lin), pred_lin)
        pred += signed[:, pos : pos + size].reshape(pred.shape) * (
            2.0 * bound(plan.level)
        )
        if slots is not None:
            hit = esc[:, pos : pos + size]
            if hit.any():
                pred[hit.reshape(pred.shape)] = pool[slots[:, pos : pos + size][hit]]
        recon[plan.target] = pred
        pos += size
    return recon


def interp_decode(
    shape: tuple[int, ...],
    abs_bound: float,
    anchors: np.ndarray,
    modes: list[int],
    codes: np.ndarray,
    outliers: np.ndarray,
    level_bound: Callable[[int], float] | None = None,
) -> np.ndarray:
    """:func:`interp_decode_many` of one array."""
    return interp_decode_many(
        shape,
        [abs_bound],
        np.asarray(anchors)[None],
        np.asarray(modes, dtype=np.int64).reshape(1, -1),
        np.asarray(codes)[None],
        [outliers],
        [level_bound],
    )[0]
