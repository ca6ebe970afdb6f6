"""Block predictors for the SZ2 pipeline: Lorenzo and linear regression.

SZ2 processes each block with one of two predictors (chosen per block by
estimated residual magnitude):

- **Lorenzo** — predicts each element from its already-reconstructed causal
  neighbours inside the block (out-of-block neighbours read as zero, matching
  SZ2's block-local semantics).  Every neighbour has a smaller index sum, so
  the positions of one hyperplane ``sum(index) == h`` depend only on earlier
  hyperplanes: the walk takes one step per hyperplane (16 for a 6³ block, 31
  for 16², 128 for a 1-D block of 128) and each step updates all of that
  hyperplane's positions in every block at once.  The arrays are held
  position-major, ``(positions + 1, n_blocks)``, so each step gathers whole
  contiguous rows; the extra row is a zero pad that out-of-block
  neighbours read.  Each element sums its stencil terms in the same order
  as a raster walk would, so codes and reconstruction are bit-identical to
  it.
- **Regression** — fits an affine model ``v ≈ c0 + Σ c_d · x_d`` per block by
  least squares on the *original* values.  The coefficients are stored
  (float32) so compressor and decompressor evaluate the identical prediction,
  making the prediction independent of reconstruction order and fully
  vectorizable.

Both predictors feed the shared :class:`~repro.compressors.quantizer.LinearQuantizer`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from repro.compressors.quantizer import LinearQuantizer

__all__ = [
    "lorenzo_encode_blocks",
    "lorenzo_decode_blocks",
    "regression_fit",
    "regression_predict",
    "estimate_lorenzo_error",
]


def _lorenzo_stencil(ndim: int) -> list[tuple[tuple[int, ...], float]]:
    """Backward offsets and inclusion-exclusion signs of the rank-``ndim``
    Lorenzo stencil, ordered by offset weight then lexicographically (1-D
    uses the left neighbour; higher ranks the full corner stencil)."""
    return [
        (tuple(int(d in axes) for d in range(ndim)), 1.0 if k % 2 else -1.0)
        for k in range(1, ndim + 1)
        for axes in itertools.combinations(range(ndim), k)
    ]


# Terms per block rank, in the order every prediction sums them.
_LORENZO_TERMS = {ndim: _lorenzo_stencil(ndim) for ndim in range(1, 5)}


def _rows(index: np.ndarray):
    """``index`` as a basic slice when it is one ascending run (a view, not a
    gather: every hyperplane of a 1-D block is a single position)."""
    if (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


@functools.lru_cache(maxsize=16)
def _hyperplane_plan(block: tuple[int, ...]):
    """Walk plan for ``block``: per hyperplane ``sum(index) == h``, the flat
    in-block positions and, per stencil term, its neighbours' flat
    positions.  An out-of-block neighbour points at row ``prod(block)``, the
    zero pad row of the position-major arrays.
    """
    size = math.prod(block)
    index = np.indices(block).reshape(len(block), size)
    neighbours = []
    for offset, _ in _LORENZO_TERMS[len(block)]:
        nb = index - np.array(offset)[:, None]
        flat = np.ravel_multi_index(np.maximum(nb, 0), block)
        neighbours.append(np.where((nb >= 0).all(axis=0), flat, size))
    level = index.sum(axis=0)
    plan = []
    for h in range(int(level.max()) + 1):
        pos = np.flatnonzero(level == h)
        plan.append((_rows(pos), pos.size, [_rows(nb[pos]) for nb in neighbours]))
    return tuple(plan)


def _position_major(blocks: np.ndarray, dtype) -> np.ndarray:
    """``(prod(block) + 1, n_blocks)`` copy of ``blocks``; last row is zero."""
    n_blocks, size = blocks.shape[0], math.prod(blocks.shape[1:])
    out = np.zeros((size + 1, n_blocks), dtype=dtype)
    out[:-1] = blocks.reshape(n_blocks, size).T
    return out


def _predict(recon: np.ndarray, n_pos: int, neighbours, signs) -> np.ndarray:
    """Lorenzo prediction of one hyperplane: a running sum from +0.0 of the
    signed neighbour rows, in stencil order.  The sum never becomes -0.0,
    so adding a pad row's ±0.0 is exact and equals skipping the term."""
    pred = np.zeros((n_pos, recon.shape[1]))
    for rows, sign in zip(neighbours, signs):
        pred += recon[rows] * sign
    return pred


def lorenzo_encode_blocks(
    blocks: np.ndarray, quantizer: LinearQuantizer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize blocks with the causal Lorenzo predictor.

    Parameters
    ----------
    blocks:
        ``(n_blocks, *block_shape)`` float64 array.
    quantizer:
        Shared linear quantizer; its ``abs_bound`` is a float or one bound
        per block, ``(n_blocks,)``, when blocks of several pieces walk
        together.

    Returns
    -------
    codes, recon, outlier_mask
        ``codes`` has the blocks' shape; ``recon`` is the decompressor-visible
        reconstruction; ``outlier_mask`` flags escape-coded elements.
    """
    block = blocks.shape[1:]
    signs = [sign for _, sign in _LORENZO_TERMS[len(block)]]
    # One array holds the values and, hyperplane by hyperplane, is
    # overwritten with the reconstruction: a step reads only its own rows'
    # values and earlier hyperplanes' reconstruction.
    recon = _position_major(blocks, np.float64)
    codes = np.zeros_like(recon, dtype=np.int64)
    for pos, n_pos, neighbours in _hyperplane_plan(block):
        codes[pos], recon[pos] = quantizer.quantize_codes(
            recon[pos], _predict(recon, n_pos, neighbours, signs)
        )
    codes = codes[:-1].T.reshape(blocks.shape)
    return codes, recon[:-1].T.reshape(blocks.shape), codes == 0


def lorenzo_decode_blocks(
    codes: np.ndarray,
    outlier_values: np.ndarray,
    outlier_slots: np.ndarray,
    quantizer: LinearQuantizer,
) -> np.ndarray:
    """Reverse :func:`lorenzo_encode_blocks`.

    ``outlier_slots`` maps each element to its index in ``outlier_values``
    (or -1); it is derived from the global code stream by the caller so the
    escape ordering matches compression exactly.
    """
    block = codes.shape[1:]
    signs = [sign for _, sign in _LORENZO_TERMS[len(block)]]
    folded = _position_major(codes, np.int64)
    esc = folded == 0
    esc[-1] = False
    slots = _position_major(outlier_slots, np.int64) if esc.any() else None
    # Residuals do not depend on the walk, so dequantize them all at once:
    # zigzag_decode(max(code - 1, 0)) in place, which keeps the peak at one
    # int64 and one float64 copy of the input.
    folded -= 1
    np.maximum(folded, 0, out=folded)
    sign = np.bitwise_and(folded, 1)
    np.negative(sign, out=sign)
    folded >>= 1
    folded ^= sign
    del sign
    # As in the encoder, one array holds the residuals and is overwritten
    # with the reconstruction hyperplane by hyperplane.
    recon = folded.astype(np.float64)
    del folded
    recon *= 2.0 * quantizer.abs_bound
    for pos, n_pos, neighbours in _hyperplane_plan(block):
        vals = _predict(recon, n_pos, neighbours, signs)
        vals += recon[pos]
        if slots is not None:
            hit = esc[pos]
            if hit.any():
                vals[hit] = outlier_values[slots[pos][hit]]
        recon[pos] = vals
    return recon[:-1].T.reshape(codes.shape)


@functools.lru_cache(maxsize=16)
def _design_matrix(block: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(block_elems, ndim+1) design matrix [1, x0, x1, ...] for the affine
    fit, and the pseudo-inverse of its Gram matrix; both read-only."""
    coords = np.stack(
        [g.ravel().astype(np.float64) for g in np.meshgrid(*[np.arange(b) for b in block], indexing="ij")],
        axis=1,
    )
    ones = np.ones((coords.shape[0], 1))
    X = np.concatenate([ones, coords], axis=1)
    gram_inv = np.linalg.pinv(X.T @ X)
    X.flags.writeable = gram_inv.flags.writeable = False
    return X, gram_inv


def regression_fit(blocks: np.ndarray) -> np.ndarray:
    """Least-squares affine coefficients per block.

    Returns ``(n_blocks, ndim + 1)`` float32 — float32 because the codec
    stores them at that precision; fitting *and* prediction use the stored
    values so both sides agree bit-for-bit.  A coefficient past the float32
    range becomes ``inf``; its block's regression error is then not finite,
    so the codec picks Lorenzo for it.
    """
    # Solve (X^T X) beta = X^T y for all blocks at once.
    X, gram_inv = _design_matrix(blocks.shape[1:])
    flat = blocks.reshape(blocks.shape[0], -1)
    beta = flat @ X @ gram_inv.T
    with np.errstate(over="ignore"):
        return beta.astype(np.float32)


def regression_predict(coeffs: np.ndarray, block: tuple[int, ...]) -> np.ndarray:
    """Evaluate stored affine coefficients; returns ``(n_blocks, *block)``."""
    X, _ = _design_matrix(tuple(block))
    with np.errstate(invalid="ignore", over="ignore"):  # inf coefficients: see regression_fit
        pred = coeffs.astype(np.float64) @ X.T
    return pred.reshape((coeffs.shape[0],) + tuple(block))


def estimate_lorenzo_error(blocks: np.ndarray) -> np.ndarray:
    """Cheap per-block proxy for Lorenzo residual magnitude.

    Uses original-value neighbours (one vectorized stencil pass) rather than
    the sequential reconstruction — the same sampling shortcut SZ2 uses for
    predictor selection.  Returns the mean absolute residual per block.
    """
    block = blocks.shape[1:]
    ndim = len(block)
    terms = _LORENZO_TERMS[ndim]
    pred = np.zeros_like(blocks)
    for offset, sign in terms:
        slicer = [slice(None)]
        src = [slice(None)]
        for o in offset:
            if o == 0:
                slicer.append(slice(None))
                src.append(slice(None))
            else:
                slicer.append(slice(o, None))
                src.append(slice(None, -o))
        shifted = np.zeros_like(blocks)
        shifted[tuple(slicer)] = blocks[tuple(src)]
        pred += sign * shifted
    resid = np.abs(blocks - pred)
    return resid.reshape(blocks.shape[0], -1).mean(axis=1)
