"""ZFP: transform-based fixed-accuracy EBLC (Lindstrom, TVCG 2014).

Pipeline per 4^d block (d = min(rank, 3); higher-rank arrays are processed as
independent 3-D slabs, the common practice for multi-field data):

1. block-floating-point: align all values to the block's largest exponent
   ``e`` and round to int64 fixed point with :data:`PRECISION` fraction bits;
2. separable integer lifting transform (:mod:`repro.compressors.transform`);
3. total-sequency coefficient reordering, negabinary mapping;
4. embedded **bitplane coding with group testing** from the most significant
   plane down to a cut-off plane derived from the absolute error bound and
   the inverse-transform gain — ZFP's fixed-accuracy mode.

The error bound is guaranteed analytically: truncating planes below ``kmin``
perturbs each coefficient by less than ``2^(kmin+1)``, the inverse lift's
L∞ gain is ``(15/4)^d``, and fixed-point rounding adds half a unit, all of
which the cut-off computation budgets for (see :func:`_kmin_for`).

Stream layout (after a 9-byte ``<BQ`` header of core rank and block count),
MSB-first, block after block: a ``0`` bit for an all-zero block; ``11`` plus
``4^d`` verbatim float64 words for a raw-escape block; otherwise ``0``, the
12-bit biased exponent, the 6-bit top plane ``kmax`` and the planes
``kmax .. kmin``.  A plane with ``n`` coefficients already significant emits
those ``n`` bits LSB-first, then one group per newly significant
coefficient — a ``1`` test bit and the plane bits up to and including that
coefficient — then a ``0`` test bit if it ends short of the block size.

The coder is block-parallel (the CEAZ formulation) and makes no Python or
NumPy call per bitplane.  Every (block, plane, coefficient) owns a fixed
*slot* for a test bit and one for a data bit, and a boolean slot mask says
which slots the stream holds; the plane's closing ``0`` sits in the test slot
at its outgoing count.  The mask follows from the *group hits* — the
coefficients each plane makes significant at or above its incoming count —
and is built for a chunk of blocks at a time (:func:`_slot_mask`).  The
encoder finds the hits from each coefficient's bit length, fills the slots
from the plane bits, keeps the masked slots and packs the whole stream with
one ``np.packbits``.  The decoder expands the payload once to a byte per bit
and finds the hits with one walk over the test bits (:func:`_walk`):
``bytes.find`` per group, one strided slice per run of planes that add no
significant coefficient, and an O(1) skip of every plane after all
coefficients are significant.  It then rebuilds the same mask and scatters
each chunk's bits back into the slots with one ``np.place``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import Compressor, by_group, register_compressor
from repro.compressors.bitstream import bit_length
from repro.compressors.blocks import (
    blockify_many,
    join_rows,
    padded_shape,
    split_rows,
    unblockify,
)
from repro.compressors.transform import (
    forward_transform,
    int_to_negabinary,
    inverse_transform,
    negabinary_to_int,
    sequency_order,
)
from repro.errors import DecompressionError

__all__ = ["ZFP", "PRECISION"]

#: Fraction bits of the block-floating-point representation.  54 leaves
#: 2 bits/dimension of transform headroom plus sign inside int64 (3-D worst
#: case: 54 + 6 + sign < 64) while keeping conversion rounding (2^(e-55))
#: far below any practical bound.
PRECISION = 54

_E_BIAS = 2048  # stored exponent bias (12-bit field)
_E_BITS = 12
_K_BITS = 6
_HEADER = struct.Struct("<BQ")

#: Header slots of a block: nonzero flag, escape flag, exponent, top plane.
_HEAD_SLOTS = 2 + _E_BITS + _K_BITS
#: Slot-matrix cells per chunk of blocks; bounds the coder's intermediates.
_CHUNK_SLOTS = 1 << 18
_MAX_PLANES = 1 << _K_BITS
#: Byte-per-bit payload -> ASCII digits, for ``int(..., 2)`` on header fields.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _block_for_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    ndim = len(shape)
    core = min(ndim, 3)
    return (1,) * (ndim - core) + (4,) * core


def _needs_raw_escape(e: int, abs_bound: float) -> bool:
    """True when fixed-point conversion alone could breach the bound.

    Happens only for huge common exponents with bounds near (or below) the
    conversion resolution 2^(e - PRECISION) — e.g. fields riding a 1e8
    offset with a micro-scale value range.  Such blocks are stored verbatim.
    """
    if abs_bound <= 0:
        return True
    bound_q = abs_bound * 2.0 ** (PRECISION - e)
    # 32 q-units of margin covers fixed-point rounding plus the lifted
    # transform's few-unit roundtrip slack after 3-D gain amplification.
    return bound_q < 32.0


def _kmin_for(e: int, abs_bound: float, core_dims: int) -> int:
    """Lowest encoded bitplane for fixed-accuracy mode.

    Budget: plane truncation (< 2^(kmin+1) per coefficient) amplified by the
    inverse-transform gain (< 4 per dimension) plus fixed-point rounding must
    stay under ``abs_bound`` in the value domain.
    """
    if abs_bound <= 0:
        return 0
    # abs_bound expressed in fixed-point (q) units.
    bound_q = abs_bound * 2.0 ** (PRECISION - e)
    if bound_q <= 1.0:
        return 0
    # Budget: negabinary truncation of planes < kmin perturbs a coefficient
    # by at most (2/3)*2^kmin; the inverse lift's per-dimension L-inf gain is
    # 15/4 < 2^1.91, so a guard of 2 bits/dimension keeps the value-domain
    # error under (2/3)*2^(1.91d - 2d) * bound < bound (fixed-point rounding
    # of 1/2 q-unit rides inside the remaining margin).
    kmin = int(np.floor(np.log2(bound_q))) - 2 * core_dims
    return max(kmin, 0)


def _chunk_rows(n_planes: int, bsize: int) -> int:
    """Blocks per chunk so one slot matrix holds about ``_CHUNK_SLOTS``."""
    return max(1, _CHUNK_SLOTS // (_HEAD_SLOTS + n_planes * 2 * bsize))


def _slot_mask(
    nonzero: np.ndarray,
    raw: np.ndarray,
    n_planes: np.ndarray,
    shape: tuple[int, int],
    hits: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Which slots of a chunk's slot matrix the stream holds, in stream order.

    Row ``b`` is block ``b``: :data:`_HEAD_SLOTS` header slots, ``4^d * 64``
    raw-payload slots when the chunk has a raw block, then for each of
    ``shape = (planes, size)`` plane ``j`` and coefficient ``i`` a test slot
    and a data slot.  ``hits`` are the ``(block, plane, coefficient)``
    indices of the group hits — the coefficients a plane makes significant
    at or above its incoming count — in stream order.  Returns the mask and
    its ``(rows, planes, size, 2)`` plane view.

    A plane holds the data bits below its outgoing count (one past its last
    hit so far) and a test bit at its incoming count and after each hit.
    The test bit at the outgoing count is the plane's closing ``0``; the
    others are ``1``, so a test slot's value is its position's data-slot
    mask.
    """
    planes, size = shape
    rows = nonzero.size
    head = _HEAD_SLOTS + (64 * size if raw.any() else 0)
    mask = np.zeros((rows, head + planes * 2 * size), dtype=bool)
    mask[:, 0] = True
    mask[:, 1] = nonzero
    mask[:, 2:_HEAD_SLOTS] = (nonzero & ~raw)[:, None]
    mask[:, _HEAD_SLOTS:head] = raw[:, None]
    cells = mask[:, head:].reshape(rows, planes, size, 2)
    if not planes:
        return mask, cells
    # Significance count after / before each plane: one past the highest
    # hit so far.  Planes past n_planes get counts that empty them.
    block, plane, coeff = hits
    row_plane = block * planes + plane
    last = np.ones(block.size, dtype=bool)
    last[:-1] = row_plane[1:] != row_plane[:-1]
    after = np.zeros((rows, planes), dtype=np.uint8)
    after.reshape(-1)[row_plane[last]] = coeff[last] + 1
    np.maximum.accumulate(after, axis=1, out=after)
    before = np.zeros_like(after)
    before[:, 1:] = after[:, :-1]
    live = np.arange(planes) < n_planes[:, None]
    pos = np.arange(size, dtype=np.uint8)
    np.less(pos, np.where(live, after, 0)[:, :, None], out=cells[:, :, :, 1])
    np.equal(pos, np.where(live, before, size)[:, :, None], out=cells[:, :, :, 0])
    inner = coeff + 1 < size
    mask.reshape(-1)[
        block[inner] * mask.shape[1] + head
        + 2 * (plane[inner] * size + coeff[inner] + 1)
    ] = True
    return mask, cells


def _from_plane_bits(bits: np.ndarray, kmax: np.ndarray) -> np.ndarray:
    """Coefficients whose bit ``kmax[b] - j`` is ``bits[b, j, i]`` (planes
    beyond ``bits`` read as 0)."""
    rows, planes, size = bits.shape
    msb = np.zeros((rows, size, 64), dtype=np.uint8)
    msb[:, :, :planes] = bits.transpose(0, 2, 1)
    aligned = np.packbits(msb, axis=2).view(">u8")[:, :, 0].astype(np.uint64)
    return aligned >> (63 - kmax).astype(np.uint64)[:, None]


def _encode_chunk(
    nonzero, raw, exps, kmax, n_planes, neg, flat_core, starts=()
) -> tuple[np.ndarray, list[int]]:
    """The stream bits (one ``uint8`` per bit) of one chunk of blocks, and
    the bit offset at which each block of ``starts`` begins."""
    rows, size = neg.shape
    planes = int(n_planes.max(initial=0))
    # The plane where each coefficient becomes significant (64: never); it is
    # a group hit unless a later coefficient did so in an earlier plane.
    first = np.where(neg > 0, kmax[:, None] + 1 - bit_length(neg), 64)
    later = np.full_like(first, 64)
    later[:, :-1] = np.minimum.accumulate(first[:, :0:-1], axis=1)[:, ::-1]
    flat = np.flatnonzero((first <= later) & (first < n_planes[:, None]))
    hits = (flat // size, first.reshape(-1)[flat], flat % size)
    mask, cells = _slot_mask(nonzero, raw, n_planes, (planes, size), hits)
    slots = np.zeros(mask.shape, dtype=np.uint8)
    slots[:, 0] = nonzero
    slots[:, 1] = raw
    field = ((exps + _E_BIAS) << _K_BITS) | kmax
    shifts = np.arange(_E_BITS + _K_BITS - 1, -1, -1)
    slots[:, 2:_HEAD_SLOTS] = (field[:, None] >> shifts) & 1
    if raw.any():
        words = flat_core.view(np.uint64).astype(">u8").view(np.uint8)
        slots[:, _HEAD_SLOTS : _HEAD_SLOTS + words.shape[1] * 8] = np.unpackbits(
            words, axis=1
        )
    values = slots[:, slots.shape[1] - cells[0].size :].reshape(cells.shape)
    values[:, :, :, 0] = cells[:, :, :, 1]
    # msb[b, i, j] = bit kmax_b - j of coefficient i.
    aligned = neg << (63 - kmax).astype(np.uint64)[:, None]
    msb = np.unpackbits(np.ascontiguousarray(aligned, ">u8").view(np.uint8), axis=1)
    values[:, :, :, 1] = msb.reshape(rows, size, 64)[:, :, :planes].transpose(0, 2, 1)
    # np.compress/np.place beat boolean indexing on these irregular masks.
    offsets = [int(np.count_nonzero(mask[:row])) for row in starts]
    return np.compress(mask.reshape(-1), slots.reshape(-1)), offsets


def _walk(stream: bytes, pos: int, blocks: range, size: int, kmin_of):
    """Parse the headers and group tests of ``blocks`` starting at bit ``pos``.

    ``stream`` holds one byte (0 or 1) per payload bit.  Returns the end bit,
    one ``(nonzero, raw, exponent, kmax, n_planes)`` row per block, and the
    group hits as flat indices ``(block * 64 + plane) * size + coefficient``
    relative to the first block.

    The Python work is one step per group plus one per plane that adds
    significant coefficients — at most ``size`` of each per block.  A run of
    planes that add none (``n`` verbatim bits and a ``0`` test bit each) is
    skipped with one strided slice, and once every coefficient is
    significant the remaining planes are pure verbatim bits, skipped in O(1).
    """
    end = len(stream)
    find = stream.find
    raw_bits = 64 * size
    heads, hits = [], []
    base = blocks.start
    try:
        for b in blocks:
            flag = stream[pos]
            escape = stream[pos + 1] if flag else 0
            if not flag or escape:
                heads.append((flag, escape, 0, 63, 0))
                pos += 2 + raw_bits if flag else 1
                continue
            if pos + _HEAD_SLOTS > end:
                raise DecompressionError("bit stream exhausted")
            field = int(stream[pos + 2 : pos + _HEAD_SLOTS].translate(_ASCII_BITS), 2)
            pos += _HEAD_SLOTS
            e = (field >> _K_BITS) - _E_BIAS
            top = field & (_MAX_PLANES - 1)
            count = max(top - kmin_of(e) + 1, 0)
            heads.append((1, 0, e, top, count))
            row = (b - base) * _MAX_PLANES * size
            n = j = 0
            while j < count:
                pos += n
                while n < size:
                    test = stream[pos]
                    pos += 1
                    if not test:
                        break
                    hit = find(b"\x01", pos, pos + size - n)
                    if hit < 0:
                        if pos + size - n > end:
                            raise DecompressionError("bit stream exhausted")
                        raise DecompressionError("zfp plane ran past block size")
                    n += hit - pos
                    hits.append(row + j * size + n)
                    n += 1
                    pos = hit + 1
                j += 1
                if n == size or j == count:
                    break
                # Skip to the next plane whose test bit after n verbatim bits is 1.
                step = n + 1
                quiet = stream[pos + n : pos + (count - j) * step : step].find(1)
                if quiet < 0:
                    quiet = count - j
                j += quiet
                pos += quiet * step
            pos += (count - j) * size
    except IndexError:
        raise DecompressionError("bit stream exhausted") from None
    if pos > end:
        raise DecompressionError("bit stream exhausted")
    return pos, heads, hits


def _check_geometry(payload: bytes, shape: tuple[int, ...]) -> tuple[int, int]:
    """Core rank and block count of ``payload``, checked against ``shape``."""
    if len(payload) < _HEADER.size:
        raise DecompressionError(
            f"zfp payload of {len(payload)} bytes is shorter than its "
            f"{_HEADER.size}-byte header"
        )
    core_dims, n_blocks = _HEADER.unpack_from(payload, 0)
    block = _block_for_shape(shape)
    want_core = block.count(4)
    want_blocks = math.prod(n // b for n, b in zip(padded_shape(shape, block), block))
    if (core_dims, n_blocks) != (want_core, want_blocks):
        raise DecompressionError(
            f"zfp payload declares {n_blocks} blocks of rank {core_dims}; "
            f"shape {shape} needs {want_blocks} of rank {want_core}"
        )
    if n_blocks > 8 * (len(payload) - _HEADER.size):
        raise DecompressionError(
            f"zfp payload of {len(payload)} bytes cannot hold {n_blocks} blocks"
        )
    return core_dims, n_blocks


def _kmin_table(exps, pieces, abs_bounds, core_dims):
    """Raw-escape flag and cut-off plane per block, each from its piece's
    bound, computed once per distinct (piece, exponent)."""
    # A biased exponent fits the stream's _E_BITS field; the piece sits above.
    keys = (pieces << _E_BITS) + (exps + _E_BIAS)
    uniq, inverse = np.unique(keys, return_inverse=True)
    field = (1 << _E_BITS) - 1
    pairs = [(abs_bounds[k >> _E_BITS], (k & field) - _E_BIAS) for k in uniq.tolist()]
    raw_u = np.array([_needs_raw_escape(e, b) for b, e in pairs])
    kmin_u = np.array([_kmin_for(e, b, core_dims) for b, e in pairs])
    return raw_u[inverse], kmin_u[inverse]


def _encode_pieces(values: list, abs_bounds: list) -> list[bytes]:
    """The payloads of pieces of one block rank, transformed and coded as
    one run of blocks; only the final byte packing is per piece."""
    block = _block_for_shape(values[0].shape)
    core_dims = sum(1 for b in block if b == 4)
    bsize = 4**core_dims
    blocks, counts = blockify_many(values, block)
    n_blocks = blocks.shape[0]
    core = blocks.reshape((n_blocks,) + (4,) * core_dims)

    # Block-floating-point conversion.
    fmax = np.abs(core).reshape(n_blocks, -1).max(axis=1)
    nonzero = fmax > 0.0
    exps = np.zeros(n_blocks, dtype=np.int64)
    if nonzero.any():
        _, e = np.frexp(fmax[nonzero])
        exps[nonzero] = e
    scale = np.exp2(PRECISION - exps.astype(np.float64))
    q = np.rint(core * scale.reshape((n_blocks,) + (1,) * core_dims)).astype(
        np.int64
    )

    coeff = forward_transform(q).reshape(n_blocks, bsize)
    order = sequency_order(core_dims)
    neg = int_to_negabinary(coeff[:, order])

    pieces = np.repeat(np.arange(len(counts)), counts)
    raw, kmin = _kmin_table(exps, pieces, abs_bounds, core_dims)
    raw &= nonzero
    normal = nonzero & ~raw
    # Top plane: bit length of the OR of the block's coefficients, minus 1.
    kmax = np.maximum(bit_length(np.bitwise_or.reduce(neg, axis=1)) - 1, 0)
    n_planes = np.where(normal, np.maximum(kmax - kmin + 1, 0), 0)

    # A block's bits do not depend on its chunk-mates, so chunks may span
    # pieces; a piece's stream starts at the bit offset of its first block.
    flat_core = core.reshape(n_blocks, bsize)
    rows = _chunk_rows(int(n_planes.max(initial=0)), bsize)
    firsts = np.cumsum(counts)[:-1]
    bits, cuts = [], []
    done = 0
    for lo in range(0, n_blocks, rows):
        s = slice(lo, lo + rows)
        chunk, offsets = _encode_chunk(
            nonzero[s], raw[s], exps[s], kmax[s], n_planes[s], neg[s], flat_core[s],
            (firsts[(firsts >= lo) & (firsts < lo + rows)] - lo).tolist(),
        )
        cuts += [done + offset for offset in offsets]
        bits.append(chunk)
        done += chunk.size
    bits = join_rows(bits)
    return [
        _HEADER.pack(core_dims, n) + np.packbits(piece).tobytes()
        for n, piece in zip(counts, np.split(bits, cuts))
    ]


def _walk_payload(payload: bytes, shape: tuple[int, ...], abs_bound: float):
    """Parse one payload's bit stream: ``(neg, exps, nonzero, raw rows, raw
    values)`` of its blocks, with the negabinary coefficients in sequency
    order."""
    core_dims, n_blocks = _check_geometry(payload, shape)
    bsize = 4**core_dims
    stream = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8, offset=_HEADER.size)
    ).tobytes()
    bits = np.frombuffer(stream, dtype=np.uint8)

    kmins: dict[int, int] = {}

    def kmin_of(e: int) -> int:
        if e not in kmins:
            try:
                kmins[e] = _kmin_for(e, abs_bound, core_dims)
            except (OverflowError, ValueError):
                raise DecompressionError(
                    f"zfp block exponent {e} is out of range for bound "
                    f"{abs_bound!r}"
                ) from None
        return kmins[e]

    neg = np.zeros((n_blocks, bsize), dtype=np.uint64)
    exps = np.zeros(n_blocks, dtype=np.int64)
    nonzero = np.zeros(n_blocks, dtype=bool)
    raw_rows: list[np.ndarray] = []
    raw_vals: list[np.ndarray] = []
    rows = _chunk_rows(_MAX_PLANES, bsize)
    pos = 0
    for lo in range(0, n_blocks, rows):
        hi = min(lo + rows, n_blocks)
        start = pos
        pos, heads, hits = _walk(stream, pos, range(lo, hi), bsize, kmin_of)
        nz, raw, e, kmax, n_planes = np.array(heads, dtype=np.int64).T
        nz, raw = nz.astype(bool), raw.astype(bool)
        planes = int(n_planes.max(initial=0))
        flat = np.array(hits, dtype=np.int64)
        block, rest = np.divmod(flat, _MAX_PLANES * bsize)
        hits = (block, *np.divmod(rest, bsize))
        mask, cells = _slot_mask(nz, raw, n_planes, (planes, bsize), hits)
        slots = np.zeros(mask.shape, dtype=np.uint8)
        np.place(slots, mask, bits[start:pos])
        head = mask.shape[1] - cells[0].size
        values = slots[:, head:].reshape(cells.shape)
        neg[lo:hi] = _from_plane_bits(values[:, :, :, 1], kmax)
        exps[lo:hi] = e
        nonzero[lo:hi] = nz
        if raw.any():
            words = np.packbits(slots[raw, _HEAD_SLOTS:head], axis=1)
            raw_rows.append(lo + np.flatnonzero(raw))
            raw_vals.append(words.view(">u8").astype(np.uint64).view(np.float64))
    return neg, exps, nonzero, raw_rows, raw_vals


def _decode_pieces(parsed: list, shapes: list) -> list[np.ndarray]:
    """Reconstruct pieces of one block rank: their parsed blocks go through
    one inverse transform."""
    block = _block_for_shape(shapes[0])
    core_dims = block.count(4)
    counts = [p[0].shape[0] for p in parsed]
    neg, exps, nonzero = (join_rows([p[i] for p in parsed]) for i in range(3))
    n_blocks = neg.shape[0]

    coeff = negabinary_to_int(neg)
    order = sequency_order(core_dims)
    inv_order = np.argsort(order)
    coeff = coeff[:, inv_order].reshape((n_blocks,) + (4,) * core_dims)
    q = inverse_transform(coeff)
    scale = np.exp2(exps.astype(np.float64) - PRECISION)
    vals = q.astype(np.float64) * scale.reshape((n_blocks,) + (1,) * core_dims)
    vals[~nonzero] = 0.0
    for first, (_, _, _, raw_rows, raw_vals) in zip(
        np.cumsum([0] + counts[:-1]).tolist(), parsed
    ):
        for idx, raw_block in zip(raw_rows, raw_vals):
            vals[first + idx] = raw_block.reshape((-1,) + (4,) * core_dims)

    full = vals.reshape((n_blocks,) + tuple(block))
    return [
        unblockify(piece, shape, tuple(block))
        for piece, shape in zip(split_rows(full, counts), shapes)
    ]


@register_compressor
class ZFP(Compressor):
    """Fixed-accuracy transform codec; fast, with graceful quality scaling.

    A batch's pieces of one block rank share the block transform in both
    directions; the encoder codes their blocks as one run, the decoder
    walks each stream on its own.
    """

    name = "zfp"

    def _compress_batch(self, values: list, abs_bounds: list) -> list[bytes]:
        return by_group(
            [_block_for_shape(v.shape) for v in values], _encode_pieces,
            values, abs_bounds,
        )

    def _decompress_batch(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        parsed = [
            _walk_payload(p, s, b) for p, s, b in zip(payloads, shapes, abs_bounds)
        ]
        return by_group(
            [_block_for_shape(s) for s in shapes], _decode_pieces, parsed, shapes
        )
