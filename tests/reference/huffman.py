"""The per-offset pointer-doubling Huffman decoder.

:func:`reference_huffman_decode` is the decoder the anchored decode of
:class:`~repro.compressors.huffman.HuffmanCodec` replaced, kept verbatim: a
64-bit window gathered at every bit offset of the word-packed payload,
classified through the peek table, long codes resolved by a per-length
canonical search, and the symbol boundaries recovered by log₂(n)
pointer-doubling rounds over the offset-successor array.  The property
battery in ``test_huffman`` requires the production decoder to return the
same array on every stream, and to raise ``DecompressionError`` on exactly
the streams this one rejects.  The one line added to the verbatim copy is
the check, shared with the production decoder, that rejects a stored symbol
value past the int64 range: a one-symbol stream used to raise an untyped
``OverflowError`` on it.

:func:`reference_code_lengths` (the heap-based code-length builder) and
:func:`reference_peek_table` (the per-length peek-table scatter) are the
table builders ``_code_lengths`` and ``_build_peek_table`` replaced, which
``test_huffman`` requires to give byte-identical tables.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.compressors.base import MAX_DECLARED_ELEMENTS
from repro.compressors.bitstream import _words_from_bytes
from repro.compressors.huffman import (
    _HEADER,
    MAX_CODE_LENGTH,
    PEEK_BITS,
    _build_peek_table,
    _canonical_codes,
    _kraft,
)
from repro.errors import DecompressionError


def reference_huffman_decode(data: bytes, n_symbols: int | None = None) -> np.ndarray:
    """Decode a :func:`~repro.compressors.huffman.huffman_encode` stream."""
    if len(data) < _HEADER.size:
        raise DecompressionError("huffman stream too short for header")
    n, n_distinct, payload_bits = _HEADER.unpack_from(data, 0)
    if n_symbols is not None and n != n_symbols:
        raise DecompressionError(
            f"huffman stream holds {n} symbols, expected {n_symbols}"
        )
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    off = _HEADER.size
    table_bytes = n_distinct * 8 + n_distinct
    if len(data) < off + table_bytes:
        raise DecompressionError("huffman stream truncated in symbol table")
    values = np.frombuffer(data, dtype=np.uint64, count=n_distinct, offset=off)
    off += n_distinct * 8
    lengths = np.frombuffer(
        data, dtype=np.uint8, count=n_distinct, offset=off
    ).astype(np.int64)
    off += n_distinct
    if lengths.size and lengths.max() > MAX_CODE_LENGTH:
        raise DecompressionError(
            f"huffman code length {int(lengths.max())} exceeds "
            f"MAX_CODE_LENGTH={MAX_CODE_LENGTH}"
        )

    # The encoder writes int64 symbols, so a stored value past that range
    # is corrupt (and would not survive the cast to the decoded dtype).
    if (values >> np.uint64(63)).any():
        raise DecompressionError("huffman symbol value exceeds the int64 range")

    if n_distinct == 1:
        # No payload bits bound a one-symbol stream's length.
        if n > MAX_DECLARED_ELEMENTS:
            raise DecompressionError(
                f"one-symbol huffman stream declares {n} symbols, over the "
                f"cap of {MAX_DECLARED_ELEMENTS}"
            )
        return np.full(n, int(values[0]), dtype=np.int64)

    # Untrusted table: every symbol needs a code, and the lengths must
    # satisfy the Kraft inequality or the canonical code space overflows
    # (which would corrupt the decode tables rather than fail cleanly).
    if (lengths < 1).any() or _kraft(lengths) > 1.0:
        raise DecompressionError("invalid huffman code-length table")
    # Every symbol consumes at least one payload bit, so a symbol count
    # beyond payload_bits is corrupt; reject it before sizing the chain.
    if n > payload_bits:
        raise DecompressionError(
            f"huffman symbol count {n} exceeds payload capacity {payload_bits}"
        )

    sorted_idx, sorted_lens, codes = _canonical_codes(
        np.arange(n_distinct), lengths
    )
    sorted_values = values[sorted_idx].astype(np.int64)

    payload = data[off:]
    total_bits = 8 * len(payload)
    if total_bits < payload_bits:
        raise DecompressionError("huffman payload truncated")

    # Speculative decode at *every* bit offset: gather a 64-bit window
    # per offset from the word-packed payload, classify the top
    # PEEK_BITS through the lookup table, and resolve the rare long-code
    # escapes with a vectorized per-length canonical search.
    table_idx, table_len = _build_peek_table(sorted_lens)
    words = _words_from_bytes(payload)
    pos = np.arange(total_bits, dtype=np.int64)
    wi = pos >> 6
    boff = (pos & 63).astype(np.uint64)
    win64 = words[wi] << boff
    np.bitwise_or(
        win64,
        np.where(
            boff > 0,
            words[wi + 1] >> ((np.uint64(64) - boff) & np.uint64(63)),
            np.uint64(0),
        ),
        out=win64,
    )
    peek = (win64 >> np.uint64(64 - PEEK_BITS)).astype(np.int64)
    idx_at = table_idx[peek]
    len_at = table_len[peek].astype(np.int64)

    escapes = np.flatnonzero(idx_at < 0)
    if escapes.size:
        # Ascending-length first-match mirrors the scalar slow path.
        esc_win = win64[escapes]
        unresolved = np.ones(escapes.size, dtype=bool)
        # sorted_lens is ascending, so its distinct lengths are the
        # first of each run (np.unique would import numpy.ma).
        starts = np.flatnonzero(np.diff(sorted_lens, prepend=-1))
        for ln in sorted_lens[starts].tolist():
            if ln <= PEEK_BITS or ln > MAX_CODE_LENGTH:
                continue
            lo = int(np.searchsorted(sorted_lens, ln, side="left"))
            hi = int(np.searchsorted(sorted_lens, ln, side="right"))
            cand = np.flatnonzero(unresolved)
            if cand.size == 0:
                break
            code = (esc_win[cand] >> np.uint64(64 - ln)).astype(np.int64)
            delta = code - int(codes[lo])
            ok = (
                (delta >= 0)
                & (delta < hi - lo)
                & (escapes[cand] + ln <= total_bits)
            )
            hit = cand[ok]
            idx_at[escapes[hit]] = (lo + delta[ok]).astype(np.int32)
            len_at[escapes[hit]] = ln
            unresolved[hit] = False

    # Offset-successor chain: position -> position of the next symbol.
    # Invalid offsets jump to the absorbing sentinel `total_bits`.
    nxt = np.where(idx_at >= 0, np.minimum(pos + len_at, total_bits), total_bits)
    nxt = np.append(nxt, total_bits)
    idx_at = np.append(idx_at, np.int32(-1))
    len_at = np.append(len_at, 0)

    # Pointer doubling: `adv` advances m symbols at once, so each round
    # doubles the known prefix of the symbol-boundary chain.
    chain = np.zeros(1, dtype=np.int64)
    adv = nxt
    m = 1
    while m < n:
        chain = np.concatenate((chain, adv[chain]))[:n]
        m = min(2 * m, n)
        if m >= n:
            break
        adv = adv[adv]

    sym_indices = idx_at[chain]
    if (sym_indices < 0).any():
        raise DecompressionError("invalid huffman code or exhausted payload")
    consumed = int(chain[-1]) + int(len_at[chain[-1]])
    if consumed != payload_bits:
        raise DecompressionError(
            f"huffman payload length mismatch: consumed {consumed}, "
            f"expected {payload_bits}"
        )
    return sorted_values[sym_indices]


def reference_code_lengths(freqs):
    """The heap-based ``_code_lengths`` the two-queue merge replaced, in its
    original leaf-list form: a heap on (frequency, id) pairs in which every
    merge copies both leaf lists and bumps each leaf."""
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Heap items: (freq, tiebreak, leaf symbols under this node)
    heap = [(int(freqs[s]), int(s), [int(s)]) for s in present]
    heapq.heapify(heap)
    tiebreak = int(freqs.size)
    while len(heap) > 1:
        fa, _, la = heapq.heappop(heap)
        fb, _, lb = heapq.heappop(heap)
        for s in la:
            lengths[s] += 1
        for s in lb:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, tiebreak, la + lb))
        tiebreak += 1

    # Limit code lengths (defensive; extremely skewed inputs only).
    if lengths.max() > MAX_CODE_LENGTH:
        lengths = np.minimum(lengths, MAX_CODE_LENGTH)
        # Repair Kraft inequality by lengthening the shortest codes.
        while _kraft(lengths) > 1.0:
            cand = np.flatnonzero((lengths > 0) & (lengths < MAX_CODE_LENGTH))
            shortest = cand[np.argmin(lengths[cand])]
            lengths[shortest] += 1
    return lengths


def reference_peek_table(sorted_lens, codes):
    """The per-length scatter ``_build_peek_table`` used before, verbatim."""
    table_idx = np.full(1 << PEEK_BITS, -1, dtype=np.int32)
    table_len = np.zeros(1 << PEEK_BITS, dtype=np.int8)
    for ln in np.unique(sorted_lens):
        ln = int(ln)
        if ln <= 0 or ln > PEEK_BITS:
            continue
        sel = np.flatnonzero(sorted_lens == ln)
        span = 1 << (PEEK_BITS - ln)
        base = (codes[sel].astype(np.int64) << (PEEK_BITS - ln))[:, None]
        idx = (base + np.arange(span, dtype=np.int64)[None, :]).ravel()
        table_idx[idx] = np.repeat(sel.astype(np.int32), span)
        table_len[idx] = ln
    return table_idx, table_len
