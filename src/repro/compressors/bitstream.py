"""Bit-level stream I/O backed by NumPy, word-at-a-time.

:func:`pack_bits` / :func:`unpack_bits` pack many variable-width fields at
once (Huffman codes, truncated mantissas, FPC residuals): every field
is shifted and or-ed directly into/out of ``uint64`` words — no
one-byte-per-bit intermediate — so both directions are a handful of O(n)
NumPy passes.

Bit order is MSB-first within each byte; the on-disk byte format is
unchanged from the original per-bit implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecompressionError

__all__ = ["bit_length", "pack_bits", "unpack_bits"]

_U64 = np.uint64
_ZERO = np.uint64(0)
_SIXTYFOUR = np.uint64(64)
_MASK6 = np.uint64(63)


def bit_length(values: np.ndarray) -> np.ndarray:
    """Exact bit length of each ``uint64``: frexp's exponent, less one where
    the float conversion rounded up to the next power of two."""
    length = np.minimum(np.frexp(values.astype(np.float64))[1], 64).astype(np.int64)
    top_bit = np.uint64(1) << np.maximum(length - 1, 0).astype(np.uint64)
    return np.where(values > 0, length - (values < top_bit), 0)


def _check_widths(widths: np.ndarray) -> None:
    if widths.size and (widths.min() < 0 or widths.max() > 64):
        raise ValueError("bit widths must be in [0, 64]")


def _mask_to_width(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Drop bits above each field's declared width (oversized inputs must not
    bleed into neighbouring fields; the bit-scatter implementation did this
    per bit)."""
    wu = widths.astype(_U64)
    return np.where(widths >= 64, values, values & ((_U64(1) << wu) - _U64(1)))


def _pack_to_words(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, int]:
    """Shift-and-or MSB-first fields into big-bit-order ``uint64`` words.

    Word ``bit 63`` is the first bit of the stream chunk the word covers, so
    serializing the words big-endian yields the MSB-first byte stream.
    Returns ``(words, total_bits)``; the word array carries one padding word.
    """
    total_bits = int(widths.sum())
    n_words = (total_bits + 63) // 64 + 1
    words = np.zeros(n_words, dtype=_U64)
    if total_bits == 0:
        return words, 0

    nz = widths > 0
    w = widths[nz].astype(_U64)
    v = values[nz]
    ends = np.cumsum(widths[nz])
    starts = (ends - widths[nz]).astype(np.int64)

    wi = starts >> 6
    off = (starts & 63).astype(_U64)
    spill = (off + w) > _SIXTYFOUR

    # High part: the bits of the field that land in word `wi`.
    sh_left = np.where(spill, _ZERO, (_SIXTYFOUR - off - w) & _MASK6)
    sh_right = np.where(spill, off + w - _SIXTYFOUR, _ZERO)
    hi = np.where(spill, v >> sh_right, v << sh_left)
    # Low part: spill-over bits into word `wi + 1`.
    sh_lo = np.where(spill, (np.uint64(128) - off - w) & _MASK6, _ZERO)
    lo = np.where(spill, v << sh_lo, _ZERO)

    # `starts` is non-decreasing, so fields sharing a word are contiguous:
    # one bitwise-or segment reduction per distinct word index.
    seg = np.flatnonzero(np.diff(wi)) + 1
    seg = np.concatenate(([0], seg))
    words[wi[seg]] |= np.bitwise_or.reduceat(hi, seg)

    if spill.any():
        wj = wi[spill] + 1
        lo = lo[spill]
        seg = np.flatnonzero(np.diff(wj)) + 1
        seg = np.concatenate(([0], seg))
        words[wj[seg]] |= np.bitwise_or.reduceat(lo, seg)
    return words, total_bits


def _words_from_bytes(data: bytes) -> np.ndarray:
    """Big-bit-order ``uint64`` view of an MSB-first byte stream.

    Two zero words of padding guarantee windowed gathers may touch
    ``wi + 1`` for any in-range bit offset, including on an empty stream.
    """
    pad = (-len(data)) % 8 + 16
    return np.frombuffer(data + b"\x00" * pad, dtype=">u8").astype(_U64, copy=False)


def _gather_fields(
    words: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Read ``widths[i]`` bits at absolute bit offset ``starts[i]`` for all i."""
    w = widths.astype(_U64)
    starts = np.where(widths > 0, starts, 0)
    wi = starts >> 6
    off = (starts & 63).astype(_U64)
    hi = words[wi] << off
    lo = np.where(off > _ZERO, words[wi + 1] >> ((_SIXTYFOUR - off) & _MASK6), _ZERO)
    window = hi | lo
    return np.where(widths > 0, window >> ((_SIXTYFOUR - w) & _MASK6), _ZERO)


def pack_bits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``values[i]`` into ``widths[i]`` bits, MSB-first, concatenated.

    Parameters
    ----------
    values:
        Non-negative integers; ``values[i] < 2**widths[i]`` (only the low
        ``widths[i]`` bits are kept).
    widths:
        Per-value bit widths in ``[0, 64]``.  Zero-width entries contribute
        nothing to the stream.

    Returns
    -------
    bytes
        The packed stream, padded with zero bits to a byte boundary.
    """
    values = np.asarray(values, dtype=_U64)
    widths = np.asarray(widths, dtype=np.int64)
    if values.shape != widths.shape:
        raise ValueError("values and widths must have the same shape")
    if values.size == 0:
        return b""
    _check_widths(widths)
    words, total_bits = _pack_to_words(_mask_to_width(values, widths), widths)
    if total_bits == 0:
        return b""
    return words.astype(">u8").tobytes()[: (total_bits + 7) // 8]


def unpack_bits(data: bytes, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bits`: read ``len(widths)`` fields.

    Returns a ``uint64`` array of the decoded values.
    """
    widths = np.asarray(widths, dtype=np.int64)
    if widths.size == 0:
        return np.zeros(0, dtype=_U64)
    _check_widths(widths)
    total_bits = int(widths.sum())
    avail = 8 * len(data)
    if avail < total_bits:
        raise DecompressionError(
            f"bit stream too short: need {total_bits} bits, have {avail}"
        )
    ends = np.cumsum(widths)
    starts = ends - widths
    return _gather_fields(_words_from_bytes(data), starts, widths)
