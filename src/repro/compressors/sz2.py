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

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.blocks import blockify, unblockify
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
    """Prediction-based EBLC with hybrid Lorenzo + regression blocks."""

    name = "sz2"

    def __init__(self, regression_bias: float = 1.0):
        #: Multiplier on the regression error estimate before comparing with
        #: Lorenzo; >1 biases block selection toward Lorenzo.
        self.regression_bias = float(regression_bias)

    # -- compression --------------------------------------------------------

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        shape = values.shape
        block = _block_for_shape(shape)
        blocks = blockify(values, block)
        n_blocks = blocks.shape[0]
        core = blocks.reshape((n_blocks,) + tuple(s for s in block if s > 1))
        core_block = core.shape[1:]

        quantizer = LinearQuantizer(abs_bound)

        # Predictor selection: regression wins when its fitted residual beats
        # the (original-neighbour) Lorenzo estimate.
        coeffs_all = regression_fit(core)
        reg_pred_all = regression_predict(coeffs_all, core_block)
        reg_err = (
            np.abs(core - reg_pred_all).reshape(n_blocks, -1).mean(axis=1)
            * self.regression_bias
        )
        lor_err = estimate_lorenzo_error(core)
        reg_mask = reg_err < lor_err

        codes = np.zeros_like(core, dtype=np.int64)
        reg_idx = np.flatnonzero(reg_mask)
        lor_idx = np.flatnonzero(~reg_mask)
        if reg_idx.size:
            q = quantizer.quantize(core[reg_idx], reg_pred_all[reg_idx])
            codes[reg_idx] = q.codes
        if lor_idx.size:
            lcodes, _, _ = lorenzo_encode_blocks(core[lor_idx], quantizer)
            codes[lor_idx] = lcodes

        flat_codes = codes.reshape(-1)
        outliers = core.reshape(-1)[flat_codes == 0]

        mode_bytes = np.packbits(reg_mask.astype(np.uint8)).tobytes()
        coeffs = coeffs_all[reg_idx]

        parts = [
            struct.pack("<B", len(block)),
            struct.pack(f"<{len(block)}H", *block),
            struct.pack("<QQ", n_blocks, reg_idx.size),
            mode_bytes,
            pack_chunk(coeffs.astype(np.float32).tobytes()),
            pack_chunk(outliers.astype(np.float64).tobytes()),
            pack_chunk(huffman_encode(flat_codes)),
        ]
        return b"".join(parts)

    # -- decompression ------------------------------------------------------

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        block, n_blocks, reg_mask, off = _read_layout(payload, shape, abs_bound)
        core_block = tuple(s for s in block if s > 1)
        reg_idx = np.flatnonzero(reg_mask)
        lor_idx = np.flatnonzero(~reg_mask)
        n_elems = n_blocks * math.prod(core_block)
        coeff_raw, off = unpack_chunk(
            payload, off, "sz2", reg_idx.size * (len(core_block) + 1) * 4
        )
        outlier_raw, off = unpack_chunk(payload, off, "sz2", max_len=8 * n_elems)
        huff_raw, off = unpack_chunk(
            payload, off, "sz2", max_len=huffman_max_bytes(n_elems)
        )
        if len(outlier_raw) % 8:
            raise DecompressionError("sz2 outlier pool is not whole float64 values")

        coeffs = np.frombuffer(coeff_raw, dtype=np.float32).reshape(
            reg_idx.size, len(core_block) + 1
        )
        outliers = np.frombuffer(outlier_raw, dtype=np.float64)
        flat_codes = huffman_decode(huff_raw, n_elems)
        codes = flat_codes.reshape((n_blocks,) + core_block)

        # Global escape-slot map (flattened block-major order).
        esc = flat_codes == 0
        slots_flat = np.where(esc, np.cumsum(esc) - 1, -1)
        slots = slots_flat.reshape(codes.shape)
        if int(esc.sum()) != outliers.size:
            raise DecompressionError("sz2 outlier pool size mismatch")

        quantizer = LinearQuantizer(abs_bound)
        recon = np.zeros(codes.shape, dtype=np.float64)
        if reg_idx.size:
            pred = regression_predict(coeffs, core_block)
            width = 2.0 * abs_bound
            sub_codes = codes[reg_idx]
            signed = zigzag_decode(np.maximum(sub_codes - 1, 0))
            vals = pred + signed.astype(np.float64) * width
            sub_slots = slots[reg_idx]
            esc_mask = sub_codes == 0
            if esc_mask.any():
                vals = np.where(
                    esc_mask, outliers[np.maximum(sub_slots, 0)], vals
                )
            recon[reg_idx] = vals
        if lor_idx.size:
            recon[lor_idx] = lorenzo_decode_blocks(
                codes[lor_idx], outliers, slots[lor_idx], quantizer
            )

        full = recon.reshape((n_blocks,) + tuple(block))
        return unblockify(full, shape, tuple(block))
