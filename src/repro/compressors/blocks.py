"""Blocking helpers shared by the block-based codecs (SZ2, ZFP, SZx).

Arrays are padded (edge-replicated) to a multiple of the block side along
every axis, then reshaped into a ``(n_blocks, block_elems)`` matrix so the
per-block kernels can be vectorized across blocks.  ``unblockify`` inverts the
operation and crops back to the original shape.  ``chunk_array`` cuts an
array into the leading-axis chunks that chunked container writes store;
``blockify_many``, ``join_rows`` and ``split_rows`` stack and unstack the
pieces a batched codec call codes together.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "blockify",
    "blockify_many",
    "chunk_array",
    "join_rows",
    "padded_shape",
    "split_rows",
    "unblockify",
]


def padded_shape(shape: tuple[int, ...], block: tuple[int, ...]) -> tuple[int, ...]:
    """Shape after padding each axis up to a multiple of the block side."""
    if len(shape) != len(block):
        raise ValueError("shape and block must have equal rank")
    return tuple(-(-n // b) * b for n, b in zip(shape, block))


def blockify(values: np.ndarray, block: tuple[int, ...]) -> np.ndarray:
    """Split ``values`` into blocks; returns ``(n_blocks, *block)``.

    Blocks are ordered raster-wise over the block grid.  Padding replicates
    edge values, which keeps padded residuals near zero for smooth fields.
    """
    values = np.asarray(values)
    ndim = values.ndim
    if len(block) != ndim:
        raise ValueError("block rank must match array rank")
    target = padded_shape(values.shape, block)
    pad = [(0, t - n) for n, t in zip(values.shape, target)]
    if any(p[1] for p in pad):
        values = np.pad(values, pad, mode="edge")
    # Reshape to interleaved (grid0, b0, grid1, b1, ...) then bring grid axes first.
    inter = []
    for n, b in zip(values.shape, block):
        inter.extend([n // b, b])
    arr = values.reshape(inter)
    grid_axes = tuple(range(0, 2 * ndim, 2))
    block_axes = tuple(range(1, 2 * ndim, 2))
    arr = arr.transpose(grid_axes + block_axes)
    n_blocks = int(np.prod([values.shape[d] // block[d] for d in range(ndim)]))
    return np.ascontiguousarray(arr.reshape((n_blocks,) + tuple(block)))


def blockify_many(arrays, block: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """:func:`blockify` of each of ``arrays``, stacked on the leading axis,
    and each array's block count."""
    parts = [blockify(a, block) for a in arrays]
    return join_rows(parts), [p.shape[0] for p in parts]


def unblockify(
    blocks: np.ndarray, shape: tuple[int, ...], block: tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`blockify`; crops the padding back off."""
    ndim = len(shape)
    target = padded_shape(shape, block)
    grid = [t // b for t, b in zip(target, block)]
    arr = blocks.reshape(tuple(grid) + tuple(block))
    # (g0, g1, ..., b0, b1, ...) -> (g0, b0, g1, b1, ...)
    perm = []
    for d in range(ndim):
        perm.extend([d, ndim + d])
    arr = arr.transpose(perm).reshape(target)
    crop = tuple(slice(0, n) for n in shape)
    return np.ascontiguousarray(arr[crop])


def chunk_array(values: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Split an array into exactly ``min(n_chunks, len(values))`` chunks.

    When the leading axis divides evenly by the chunk count, the split
    reuses :func:`blockify` with a full-rank block of shape
    ``(height, *trailing)`` — one block per chunk; otherwise it falls back
    to ``np.array_split``.  The chunk count is bounded by the leading-axis
    length (rows cannot be split), so it can be smaller than what
    :func:`repro.iolib.pipeline.chunk_spans` models for the same request on
    a short, wide array.  Concatenating the chunks along axis 0 reproduces
    the input exactly (no padding survives).
    """
    values = np.asarray(values)
    if values.ndim == 0:
        raise ConfigurationError("cannot chunk a 0-d array")
    n0 = values.shape[0]
    n = min(max(int(n_chunks), 1), n0) if n0 else 1
    if n0 and n0 % n == 0:
        block = (n0 // n,) + values.shape[1:]
        stacked = blockify(values, block)  # (n, height, *trailing)
        return [np.ascontiguousarray(stacked[i]) for i in range(stacked.shape[0])]
    return [np.ascontiguousarray(c) for c in np.array_split(values, n, axis=0)]


def join_rows(parts: list) -> np.ndarray:
    """``parts`` joined on their leading axis; a lone part is returned as
    is, so a batch of one copies nothing."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def split_rows(array: np.ndarray, counts) -> list[np.ndarray]:
    """Inverse of :func:`join_rows`: ``array`` cut along its leading axis
    into runs of ``counts`` rows."""
    return np.split(array, np.cumsum(counts)[:-1]) if len(counts) > 1 else [array]
