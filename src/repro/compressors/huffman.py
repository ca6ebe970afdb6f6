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
- vectorized decoding from anchors on the true symbol chain: the
  :data:`PEEK_BITS`-bit prefix at *every* bit offset of the payload is read
  through one broadcast shift of a byte-strided 32-bit view and decoded
  speculatively through one fused lookup table (canonical codes fill
  contiguous prefix ranges; one ``np.searchsorted`` against the canonical
  left-justified limits resolves the rare codes longer than
  :data:`PEEK_BITS`), giving each offset's successor.  Five doubling rounds
  turn the successor array into a 32-symbol jump, a scalar walk visits
  every 32nd symbol boundary, and 32 lockstep gathers expand those anchors
  into the full chain.  Every anchor lies on the true chain, so no lane
  ever has to resynchronise.

Both directions are O(n) NumPy passes over the symbols and the payload
bits; decode makes a constant number of passes over ``payload_bits``-sized
arrays plus n/32 scalar steps.  The Python loops run over the distinct
symbols only, apart from that anchor walk: one step per merge and one per
merged node's depth.  Canonical codes are assigned without a loop, from
one ``np.bincount`` over the at most ``MAX_CODE_LENGTH + 1`` code lengths.
The byte format is identical to the original per-symbol implementation.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import MAX_DECLARED_ELEMENTS
from repro.compressors.bitstream import pack_bits
from repro.errors import DecompressionError

__all__ = ["HuffmanCodec", "huffman_encode", "huffman_decode", "huffman_max_bytes"]

MAX_CODE_LENGTH = 32
PEEK_BITS = 12

_HEADER = struct.Struct("<IHI")  # n_symbols_encoded, n_distinct, payload_bits

# The decoder anchors every _LANES-th symbol and expands the anchors in
# _LANES lockstep gathers; _ANCHOR_ROUNDS doubling rounds reach that jump.
_ANCHOR_ROUNDS = 5
_LANES = 1 << _ANCHOR_ROUNDS


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

    Vectorized: within one length run the codes are ``first_code + rank``,
    and the canonical recurrence ``first[L] = (first[L-1] + count[L-1]) << 1``
    over the at most ``MAX_CODE_LENGTH + 1`` lengths has the closed form
    ``sum(count[l] << (L - l) for l < L)``, summed here at a common scale.
    """
    order = np.lexsort((symbols, lengths))
    sorted_syms = symbols[order]
    sorted_lens = lengths[order]
    count = np.bincount(sorted_lens, minlength=MAX_CODE_LENGTH + 1)
    shift = count.size - 1 - np.arange(count.size)
    scaled = count << shift
    first = (np.cumsum(scaled) - scaled) >> shift
    start = np.cumsum(count) - count
    codes = (first - start)[sorted_lens] + np.arange(symbols.size)
    return sorted_syms, sorted_lens, codes.astype(np.uint64)


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


def _anchors(nxt: np.ndarray, count: int) -> list[int]:
    """Offsets of symbols 0, _LANES, 2 * _LANES, ... on the chain from 0.

    Doubling ``nxt`` :data:`_ANCHOR_ROUNDS` times gives each offset's
    successor ``_LANES`` symbols on; the anchors are then one scalar step
    apart.
    """
    adv = nxt.take(nxt, mode="clip")
    spare = np.empty_like(adv)
    for _ in range(_ANCHOR_ROUNDS - 1):
        adv.take(adv, out=spare, mode="clip")
        adv, spare = spare, adv
    step = memoryview(adv)
    anchors = [0] * count
    a = 0
    for i in range(1, count):
        a = step[a]
        anchors[i] = a
    return anchors


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

        # Decode speculatively at every bit offset.  Each offset's entry is
        # (sorted index << 6) | code length, 0 where no code starts: a
        # byte-strided big-endian 32-bit view of the zero-padded payload
        # holds one window per byte, and one broadcast shift reads the peek
        # prefix at its 8 bit phases.  Two bytes past the payload cover
        # the overshoot of a short code; offsets from total_bits on are
        # invalid.
        table_idx, table_len = _build_peek_table(sorted_lens)
        table = (np.maximum(table_idx, 0).astype(np.intp) << 6) | table_len
        nbytes = len(payload)
        padded = b"".join((payload, bytes(8)))
        win = np.ndarray(
            (nbytes + 4,), dtype=">u4", buffer=padded, strides=(1,)
        ).astype(np.intp)
        phases = np.arange(32 - PEEK_BITS, 24 - PEEK_BITS, -1)
        peek = np.right_shift(win[: nbytes + 2, None], phases)
        peek &= (1 << PEEK_BITS) - 1
        ent = table.take(peek, mode="clip").ravel()
        del peek
        ent[total_bits:] = 0

        # Short codes fill the table from its start, so only a table whose
        # last entry is empty leaves prefixes to long codes.  Canonical
        # codes left-justified to 32 bits fill one contiguous range per
        # length, ending at the limits below, so one search of each
        # escape's 32-bit window finds its length.
        if not table[-1]:
            escapes = np.flatnonzero(ent[:total_bits] == 0)
            b, q = escapes >> 3, escapes & 7
            w = ((win[b] << q) | (win[b + 4] >> (32 - q))) & 0xFFFFFFFF
            starts = np.flatnonzero(np.diff(sorted_lens, prepend=-1))
            run_lens = sorted_lens[starts]
            firsts = codes[starts].astype(np.int64)
            counts = np.diff(np.append(starts, sorted_lens.size))
            limits = (firsts + counts) << (32 - run_lens)
            run = np.searchsorted(limits, w, side="right")
            ok = run < limits.size
            escapes, w, run = escapes[ok], w[ok], run[ok]
            ln = run_lens[run]
            ok = escapes + ln <= total_bits
            escapes, w, run, ln = escapes[ok], w[ok], run[ok], ln[ok]
            sym = starts[run] + (w >> (32 - ln)) - firsts[run]
            ent[escapes] = (sym << 6) | ln

        # Offset-successor chain: position -> position of the next symbol.
        # Invalid offsets (entry 0) loop on themselves, so a chain that
        # meets one stays there and fails the checks below.  Every
        # successor is an index into `ent`, which is why the gathers below
        # may skip their bounds checks (mode="clip").
        nxt = ent & 63
        nxt += np.arange(ent.size, dtype=np.intp)

        # Anchor every `lanes`-th symbol on the true chain, then expand all
        # anchors in lockstep, one gather of `nxt` per symbol.  Symbol i
        # sits at chain[i % lanes, i // lanes].
        lanes = min(_LANES, n)
        n_anchors = -(-n // lanes)
        chain = np.zeros((lanes, n_anchors), dtype=np.intp)
        if n_anchors > 1:
            chain[0] = _anchors(nxt, n_anchors)
        for r in range(1, lanes):
            nxt.take(chain[r - 1], out=chain[r], mode="clip")

        # In symbol order the gathers read the payload's entries forwards,
        # several times faster than lane by lane.
        chain = chain.T.reshape(-1)[:n]
        sym_ent = ent.take(chain, mode="clip")
        if not sym_ent.all():
            raise DecompressionError("invalid huffman code or exhausted payload")
        consumed = int(chain[-1]) + (int(sym_ent[-1]) & 63)
        if consumed != payload_bits:
            raise DecompressionError(
                f"huffman payload length mismatch: consumed {consumed}, "
                f"expected {payload_bits}"
            )
        sym_ent >>= 6
        return sorted_values.take(sym_ent, mode="clip")


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
