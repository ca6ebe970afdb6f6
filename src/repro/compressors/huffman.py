"""Canonical Huffman codec for quantization-code streams.

The SZ family entropy-codes quantization indices with Huffman before a final
DEFLATE pass.  This module implements a canonical Huffman code:

- tree construction by the two-queue merge (leaves sorted by frequency,
  merged nodes queued in creation order), recording one parent pointer per
  merge; code lengths are the leaves' depths, found in one root-first pass
  over the merges (linear in the alphabet after the sort),
- code lengths limited to :data:`MAX_CODE_LENGTH` via the standard
  length-limiting adjustment (rarely triggered for quantization data),
- a compact header storing only the symbol list and code lengths,
- vectorized encoding through :func:`repro.compressors.bitstream.pack_bits`,
- fully vectorized decoding: a :data:`PEEK_BITS`-bit window is gathered at
  *every* candidate bit offset of the word-packed payload, decoded
  speculatively through the lookup table (one ``np.repeat``: canonical codes
  fill contiguous prefix ranges; a per-length canonical search handles the
  rare codes longer than :data:`PEEK_BITS`), and the true symbol boundaries
  are then recovered by pointer-doubling over the resulting offset-successor
  array.

Both directions are O(n) NumPy passes over the symbols (decode adds a
log₂(n) factor for the pointer doubling).  The Python loops run over the
distinct symbols only: one step per merge and one per merged node's depth,
plus one iteration per distinct code length when assigning canonical codes.
The byte format is identical to the original per-symbol implementation.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import MAX_DECLARED_ELEMENTS
from repro.compressors.bitstream import _words_from_bytes, pack_bits
from repro.errors import DecompressionError

__all__ = ["HuffmanCodec", "huffman_encode", "huffman_decode", "huffman_max_bytes"]

MAX_CODE_LENGTH = 32
PEEK_BITS = 12

_HEADER = struct.Struct("<IHI")  # n_symbols_encoded, n_distinct, payload_bits


def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code length per symbol (0 for absent symbols).

    Two-queue Huffman: the leaves, sorted by (frequency, symbol), form one
    queue; merged nodes join a second queue in creation order, which is
    also weight order.  Each merge takes the lighter front of the two, and
    a leaf wins a weight tie.  That is exactly the pop order of a heap on
    (frequency, id) pairs in which a leaf's id is its symbol and the k-th
    merged node's id is ``freqs.size + k``, so the tree, and with it every
    length, is the heap's.  Each merge records its children's parent;
    depths follow in one pass over the merges, root first.  A single
    distinct symbol gets length 1 so the stream is still decodable.
    """
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    weights = freqs[present]
    order = np.lexsort((present, weights))
    n = present.size
    # A sentinel heavier than the whole tree ends each queue.
    sentinel = int(weights.sum()) + 1
    leaf_w = weights[order].tolist() + [sentinel]
    node_w = [sentinel] * n
    # Merge index that takes each sorted leaf and each merged node.
    leaf_parent = [0] * n
    node_parent = [0] * n
    i = j = 0
    lw, nw = leaf_w[0], sentinel
    for k in range(n - 1):
        if lw <= nw:
            w = lw
            leaf_parent[i] = k
            i += 1
            lw = leaf_w[i]
        else:
            w = nw
            node_parent[j] = k
            j += 1
            nw = node_w[j]
        if lw <= nw:
            w += lw
            leaf_parent[i] = k
            i += 1
            lw = leaf_w[i]
        else:
            w += nw
            node_parent[j] = k
            j += 1
            nw = node_w[j]
        node_w[k] = w
        if j == k:
            nw = w

    # Merged nodes are created after their children, so walking them from
    # the root down sees every parent's depth before its children's.
    depth = [0] * (n - 1)
    for k in range(n - 3, -1, -1):
        depth[k] = depth[node_parent[k]] + 1
    lengths[present[order]] = np.asarray(depth)[leaf_parent] + 1

    # Limit code lengths (defensive; extremely skewed inputs only).
    if lengths.max() > MAX_CODE_LENGTH:
        lengths = np.minimum(lengths, MAX_CODE_LENGTH)
        # Repair Kraft inequality by lengthening the shortest codes.
        while _kraft(lengths) > 1.0:
            cand = np.flatnonzero((lengths > 0) & (lengths < MAX_CODE_LENGTH))
            shortest = cand[np.argmin(lengths[cand])]
            lengths[shortest] += 1
    return lengths


def _kraft(lengths: np.ndarray) -> float:
    nz = lengths[lengths > 0]
    return float(np.sum(2.0 ** (-nz.astype(np.float64))))


def _canonical_codes(symbols: np.ndarray, lengths: np.ndarray):
    """Assign canonical codes: sort by (length, symbol), count upward.

    Vectorized: within one length run the codes are ``first_code + rank``;
    across lengths the canonical recurrence ``first <<= (len - prev_len)``
    only needs one Python iteration per *distinct* length (≤ 32).
    """
    order = np.lexsort((symbols, lengths))
    sorted_syms = symbols[order]
    sorted_lens = lengths[order]
    codes = np.zeros(symbols.size, dtype=np.uint64)
    if symbols.size == 0:
        return sorted_syms, sorted_lens, codes
    distinct, run_start, run_count = np.unique(
        sorted_lens, return_index=True, return_counts=True
    )
    first = 0
    prev_len = int(distinct[0])
    first_codes = np.zeros(distinct.size, dtype=np.uint64)
    for j in range(distinct.size):
        ln = int(distinct[j])
        first <<= ln - prev_len
        first_codes[j] = first
        first += int(run_count[j])
        prev_len = ln
    rank = np.arange(symbols.size, dtype=np.uint64) - run_start.astype(np.uint64).repeat(
        run_count
    )
    codes = first_codes.repeat(run_count) + rank
    return sorted_syms, sorted_lens, codes


def _build_peek_table(sorted_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PEEK_BITS-bit prefix -> (sorted-symbol index, code length) for short codes.

    ``sorted_lens`` are the canonical code lengths in (length, symbol) order,
    all >= 1 and within the Kraft bound.  Canonical codes then cover
    contiguous left-aligned prefix ranges from 0, one range of
    ``2**(PEEK_BITS - len)`` entries per short code, in sorted order.
    Unfilled entries (long-code prefixes) keep index -1 / length 0.
    """
    table_idx = np.full(1 << PEEK_BITS, -1, dtype=np.int32)
    table_len = np.zeros(1 << PEEK_BITS, dtype=np.int8)
    short = sorted_lens[sorted_lens <= PEEK_BITS]
    spans = np.left_shift(1, PEEK_BITS - short)
    filled = int(spans.sum())
    table_idx[:filled] = np.repeat(np.arange(short.size, dtype=np.int32), spans)
    table_len[:filled] = np.repeat(short.astype(np.int8), spans)
    return table_idx, table_len


class HuffmanCodec:
    """Encode/decode integer symbol arrays with a canonical Huffman code."""

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode a 1-D array of non-negative integers.

        The output is self-describing: header + symbol/length table + packed
        payload.  An empty input encodes to a valid empty stream.
        """
        symbols = np.ascontiguousarray(symbols)
        if symbols.ndim != 1:
            raise ValueError("HuffmanCodec.encode expects a 1-D array")
        n = symbols.size
        if n == 0:
            return _HEADER.pack(0, 0, 0)
        if symbols.min() < 0:
            raise ValueError("symbols must be non-negative")

        values, inverse, counts = np.unique(
            symbols, return_inverse=True, return_counts=True
        )
        if values.size == 1:
            # Degenerate alphabet: the count alone reconstructs the stream.
            header = _HEADER.pack(n, 1, 0)
            return b"".join((header, values.astype(np.uint64).tobytes(), b"\x01"))
        freqs = counts.astype(np.int64)
        lengths = _code_lengths(freqs)
        sorted_syms, sorted_lens, codes = _canonical_codes(
            np.arange(values.size), lengths
        )
        # Per-distinct-symbol code/length, indexed by position in `values`.
        sym_code = np.zeros(values.size, dtype=np.uint64)
        sym_len = np.zeros(values.size, dtype=np.int64)
        sym_code[sorted_syms] = codes
        sym_len[sorted_syms] = sorted_lens

        stream_lens = sym_len[inverse]
        payload = pack_bits(sym_code[inverse], stream_lens)
        payload_bits = int(stream_lens.sum())

        header = _HEADER.pack(n, values.size, payload_bits)
        return b"".join(
            (
                header,
                values.astype(np.uint64).tobytes(),
                sym_len.astype(np.uint8).tobytes(),
                payload,
            )
        )

    def decode(self, data: bytes, n_symbols: int | None = None) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` (returns ``int64``).

        ``n_symbols``, when the caller knows it, is checked against the
        header's symbol count before anything is sized from it.
        """
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


_DEFAULT = HuffmanCodec()


def huffman_encode(symbols: np.ndarray) -> bytes:
    """Module-level convenience wrapper around :class:`HuffmanCodec`."""
    return _DEFAULT.encode(symbols)


def huffman_decode(data: bytes, n_symbols: int | None = None) -> np.ndarray:
    """Module-level convenience wrapper around :class:`HuffmanCodec`."""
    return _DEFAULT.decode(data, n_symbols)


def huffman_max_bytes(n_symbols: int) -> int:
    """Upper bound on the length of an encoded stream of ``n_symbols``
    symbols: the header, a full symbol table (at most one entry per symbol
    and 2**16 - 1 entries), and :data:`MAX_CODE_LENGTH` bits per symbol."""
    n_table = min(n_symbols, 2**16 - 1)
    return _HEADER.size + 9 * n_table + -(-n_symbols * MAX_CODE_LENGTH // 8)
