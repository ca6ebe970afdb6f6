"""SZ2: blockwise Lorenzo/regression prediction compressor.

Pipeline (faithful to Liang et al., IEEE Big Data 2018):

1. split the array into small blocks (128 for 1-D, 16x16 for 2-D, 6x6x6 for
   3-D; higher-rank arrays use unit-length leading block sides so each block
   is a 3-D tile);
2. per block, choose between the causal **Lorenzo** predictor and a stored
   **linear-regression** (affine) predictor, by estimated residual magnitude;
3. quantize prediction residuals on a ``2·eb`` grid with an outlier escape;
4. entropy-code the quantization symbols with canonical **Huffman**, then a
   **DEFLATE** pass (zlib stands in for the paper's Zstd final stage).

The value-range relative error bound is guaranteed element-wise: quantized
elements by the quantizer contract, escaped elements verbatim.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import (
    Compressor,
    by_group,
    piece_bounds,
    register_compressor,
    take_bounds,
)
from repro.compressors.blocks import blockify_many, join_rows, split_rows, unblockify
from repro.compressors.deflate import pack_chunk, unpack_chunk
from repro.compressors.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_max_bytes,
)
from repro.compressors.predictors import (
    estimate_lorenzo_error,
    lorenzo_decode_blocks,
    lorenzo_encode_blocks,
    regression_fit,
    regression_predict,
)
from repro.compressors.quantizer import LinearQuantizer, zigzag_decode
from repro.errors import DecompressionError

__all__ = ["SZ2"]


def _block_for_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    ndim = len(shape)
    if ndim == 1:
        return (128,)
    if ndim == 2:
        return (16, 16)
    if ndim == 3:
        return (6, 6, 6)
    return (1,) * (ndim - 3) + (6, 6, 6)


def _read_layout(payload: bytes, shape: tuple[int, ...], abs_bound: float):
    """Parse and check the payload header against the stream's shape.

    Returns ``(block, n_blocks, regression mask, offset of the first chunk)``.
    Everything is checked before any array is sized from it.
    """
    if not abs_bound > 0:
        raise DecompressionError(f"sz2 needs a positive error bound, got {abs_bound!r}")
    block = _block_for_shape(shape)
    if len(block) != len(shape):
        raise DecompressionError(f"sz2 cannot decode a rank-{len(shape)} shape")
    if not payload or payload[0] != len(block):
        raise DecompressionError(
            f"sz2 block rank does not match the rank-{len(shape)} stream shape"
        )
    head = struct.Struct(f"<B{len(block)}HQQ")
    if len(payload) < head.size:
        raise DecompressionError("sz2 stream truncated in payload header")
    _, *stored, n_blocks, n_reg = head.unpack_from(payload, 0)
    if tuple(stored) != block:
        raise DecompressionError(
            f"sz2 block {tuple(stored)} does not match {block} for shape {shape}"
        )
    expected = math.prod(-(-n // b) for n, b in zip(shape, block))
    if n_blocks != expected or expected == 0:
        raise DecompressionError(
            f"sz2 stream declares {n_blocks} blocks; shape {shape} has {expected}"
        )
    off = head.size
    n_mode_bytes = -(-n_blocks // 8)
    if len(payload) < off + n_mode_bytes:
        raise DecompressionError("sz2 stream truncated in predictor modes")
    modes = np.frombuffer(payload, dtype=np.uint8, count=n_mode_bytes, offset=off)
    reg_mask = np.unpackbits(modes)[:n_blocks].astype(bool)
    if n_reg != int(reg_mask.sum()):
        raise DecompressionError(
            f"sz2 stream declares {n_reg} regression blocks; its modes mark "
            f"{int(reg_mask.sum())}"
        )
    return block, n_blocks, reg_mask, off + n_mode_bytes


@register_compressor
class SZ2(Compressor):
    """Prediction-based EBLC with hybrid Lorenzo + regression blocks.

    A batch's pieces of one rank go through one predictor pass: their blocks
    are stacked, each block quantized under its own piece's bound, and only
    the regression fit, the entropy coding and the framing run per piece.
    """

    name = "sz2"

    # -- compression --------------------------------------------------------

    def _compress_batch(self, values: list, abs_bounds: list) -> list[bytes]:
        return by_group(
            [v.ndim for v in values], _compress_pieces, values, abs_bounds
        )

    # -- decompression ------------------------------------------------------

    def _decompress_batch(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        layouts = [
            _read_payload(p, s, b) for p, s, b in zip(payloads, shapes, abs_bounds)
        ]
        return by_group(
            [len(s) for s in shapes], _decompress_pieces, layouts, shapes, abs_bounds
        )


def _compress_pieces(values: list, abs_bounds: list) -> list[bytes]:
    """The payloads of same-rank pieces, their blocks predicted together."""
    block = _block_for_shape(values[0].shape)
    core_block = tuple(s for s in block if s > 1)
    blocks, counts = blockify_many(values, block)
    n_blocks = blocks.shape[0]
    core = blocks.reshape((n_blocks,) + core_block)
    cores = split_rows(core, counts)
    bound = piece_bounds(abs_bounds, counts)

    # Predictor selection: regression wins when its fitted residual beats
    # the (original-neighbour) Lorenzo estimate.  The fit runs per piece,
    # so each piece's matrix products see exactly its own blocks.
    coeffs_all = [regression_fit(c) for c in cores]
    reg_pred_all = join_rows([regression_predict(c, core_block) for c in coeffs_all])
    reg_err = np.abs(core - reg_pred_all).reshape(n_blocks, -1).mean(axis=1)
    lor_err = estimate_lorenzo_error(core)
    reg_mask = reg_err < lor_err

    codes = np.zeros_like(core, dtype=np.int64)
    reg_idx = np.flatnonzero(reg_mask)
    lor_idx = np.flatnonzero(~reg_mask)
    if reg_idx.size:
        quantizer = LinearQuantizer(take_bounds(bound, reg_idx, (1,) * len(core_block)))
        codes[reg_idx], _ = quantizer.quantize_codes(
            core[reg_idx], reg_pred_all[reg_idx]
        )
    if lor_idx.size:
        quantizer = LinearQuantizer(take_bounds(bound, lor_idx))
        codes[lor_idx], _, _ = lorenzo_encode_blocks(core[lor_idx], quantizer)

    payloads = []
    for piece, piece_codes, mask, coeffs in zip(
        cores, split_rows(codes, counts), split_rows(reg_mask, counts), coeffs_all
    ):
        flat_codes = piece_codes.reshape(-1)
        outliers = piece.reshape(-1)[flat_codes == 0]
        payloads.append(b"".join([
            struct.pack("<B", len(block)),
            struct.pack(f"<{len(block)}H", *block),
            struct.pack("<QQ", mask.size, int(np.count_nonzero(mask))),
            np.packbits(mask.astype(np.uint8)).tobytes(),
            pack_chunk(coeffs[mask].astype(np.float32).tobytes()),
            pack_chunk(outliers.astype(np.float64).tobytes()),
            pack_chunk(huffman_encode(flat_codes)),
        ]))
    return payloads


def _read_payload(payload: bytes, shape: tuple[int, ...], abs_bound: float):
    """Parse and check one payload: ``(codes, regression mask, coefficients,
    outlier pool)``, the codes shaped ``(n_blocks, *core_block)``."""
    block, n_blocks, reg_mask, off = _read_layout(payload, shape, abs_bound)
    core_block = tuple(s for s in block if s > 1)
    n_reg = int(np.count_nonzero(reg_mask))
    n_elems = n_blocks * math.prod(core_block)
    coeff_raw, off = unpack_chunk(
        payload, off, "sz2", n_reg * (len(core_block) + 1) * 4
    )
    outlier_raw, off = unpack_chunk(payload, off, "sz2", max_len=8 * n_elems)
    huff_raw, off = unpack_chunk(
        payload, off, "sz2", max_len=huffman_max_bytes(n_elems)
    )
    if len(outlier_raw) % 8:
        raise DecompressionError("sz2 outlier pool is not whole float64 values")

    coeffs = np.frombuffer(coeff_raw, dtype=np.float32).reshape(
        n_reg, len(core_block) + 1
    )
    outliers = np.frombuffer(outlier_raw, dtype=np.float64)
    codes = huffman_decode(huff_raw, n_elems)
    if int(np.count_nonzero(codes == 0)) != outliers.size:
        raise DecompressionError("sz2 outlier pool size mismatch")
    return codes.reshape((n_blocks,) + core_block), reg_mask, coeffs, outliers


def _decompress_pieces(layouts: list, shapes: list, abs_bounds: list) -> list:
    """Reconstruct same-rank pieces, their blocks decoded together."""
    block = _block_for_shape(shapes[0])
    core_block = tuple(s for s in block if s > 1)
    counts = [layout[0].shape[0] for layout in layouts]
    bound = piece_bounds(abs_bounds, counts)
    codes, reg_mask, outliers = (
        join_rows([layout[i] for layout in layouts]) for i in (0, 1, 3)
    )
    reg_idx = np.flatnonzero(reg_mask)
    lor_idx = np.flatnonzero(~reg_mask)

    # Global escape-slot map (flattened block-major order): the pools are
    # concatenated in piece order, as the codes are.
    esc = codes == 0
    slots = np.where(esc, np.cumsum(esc).reshape(codes.shape) - 1, -1)

    recon = np.zeros(codes.shape, dtype=np.float64)
    if reg_idx.size:
        pred = join_rows([
            regression_predict(coeffs, core_block) for _, _, coeffs, _ in layouts
        ])
        width = 2.0 * take_bounds(bound, reg_idx, (1,) * len(core_block))
        sub_codes = codes[reg_idx]
        signed = zigzag_decode(np.maximum(sub_codes - 1, 0))
        vals = pred + signed.astype(np.float64) * width
        esc_mask = sub_codes == 0
        if esc_mask.any():
            vals = np.where(esc_mask, outliers[np.maximum(slots[reg_idx], 0)], vals)
        recon[reg_idx] = vals
    if lor_idx.size:
        quantizer = LinearQuantizer(take_bounds(bound, lor_idx))
        recon[lor_idx] = lorenzo_decode_blocks(
            codes[lor_idx], outliers, slots[lor_idx], quantizer
        )

    full = recon.reshape((-1,) + tuple(block))
    return [
        unblockify(piece, shape, tuple(block))
        for piece, shape in zip(split_rows(full, counts), shapes)
    ]
