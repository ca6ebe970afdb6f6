"""Batched coding: ``compress_many`` and ``decompress_many`` return exactly
what per-piece ``compress`` and ``decompress`` return, and each batched
kernel reproduces its reference oracle piece by piece."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.blocks import chunk_array
from repro.compressors.interpolation import interp_decode_many, interp_encode_many
from repro.compressors.predictors import lorenzo_decode_blocks, lorenzo_encode_blocks
from repro.compressors.quantizer import LinearQuantizer
from repro.errors import CompressionError, DecompressionError

from hostile import bit_flips, outcomes, truncations, walk
from reference.interpolation import reference_interp_decode, reference_interp_encode
from reference.predictors import reference_lorenzo_decode, reference_lorenzo_encode
from reference.quantizer import reference_quantize

EBLCS = ("sz2", "sz3", "qoz", "zfp", "szx")


def _outlier_piece(shape, seed):
    """A smooth piece with one spike so tall that, at a tight bound, its
    neighbours' residuals overflow the code range and take the escape."""
    piece = walk(shape, seed) * 1e-3
    piece.flat[piece.size // 2] = 1e3
    return piece


def _batches(dtype):
    """``(label, pieces)`` batches of 1 to 5 pieces of ``dtype``."""
    rng = np.random.default_rng(7)
    batches = [
        ("one", [walk((9, 10), 1)]),
        ("equal", chunk_array(walk((20, 9, 8), 2), 4)),
        ("array_split", np.array_split(walk((23, 11), 3), 5)),
        ("constant_and_outliers", [
            np.full((6, 7), 2.5), _outlier_piece((6, 7), 4), walk((6, 7), 5),
        ]),
        ("mixed_ranks", [walk((300,), 6), rng.standard_normal((5, 6, 7)) * 1e3]),
    ]
    return [
        (label, [np.ascontiguousarray(p, dtype=dtype) for p in pieces])
        for label, pieces in batches
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("codec", EBLCS)
def test_batch_is_byte_identical_to_per_piece(codec, dtype):
    comp = get_compressor(codec)
    for rel in (1e-2, 1e-6):
        for label, pieces in _batches(dtype):
            bufs = comp.compress_many(pieces, rel)
            assert [b.data for b in bufs] == [
                comp.compress(p, rel).data for p in pieces
            ], (label, rel)
            assert [(b.shape, b.dtype, b.rel_bound) for b in bufs] == [
                (p.shape, p.dtype, rel) for p in pieces
            ]
            streams = [b.data for b in bufs]
            got = comp.decompress_many(streams)
            for stream, array in zip(streams, got):
                alone = comp.decompress(stream)
                assert array.dtype == alone.dtype and array.shape == alone.shape
                assert array.tobytes() == alone.tobytes(), (label, rel)


@pytest.mark.parametrize("codec", EBLCS)
def test_one_bound_per_piece(codec):
    """A sequence of bounds codes each piece under its own bound: one field
    at three bounds is byte-identical to three lone compressions."""
    comp = get_compressor(codec)
    field = walk((12, 10), 9)
    bounds = (1e-4, 1e-3, 1e-2)
    bufs = comp.compress_many([field] * 3, bounds)
    assert [b.data for b in bufs] == [comp.compress(field, b).data for b in bounds]
    assert [b.rel_bound for b in bufs] == list(bounds)
    back = comp.decompress_many([b.data for b in bufs])
    assert [a.tobytes() for a in back] == [
        comp.decompress(b.data).tobytes() for b in bufs
    ]
    with pytest.raises(CompressionError, match="2 bounds for 3 arrays"):
        comp.compress_many([field] * 3, bounds[:2])


def test_empty_batch():
    comp = get_compressor("sz3")
    assert comp.compress_many([], 1e-3) == [] and comp.decompress_many([]) == []


@pytest.mark.parametrize("codec", ("sz2", "sz3", "qoz"))
def test_outlier_piece_takes_the_escape(codec):
    """The outlier piece of the batches above exercises the escape pool at
    the tight bound: the spike comes back verbatim, within bound."""
    piece = _outlier_piece((6, 7), 4)
    comp = get_compressor(codec)
    (buf,) = comp.compress_many([piece], 1e-6)
    back = comp.decompress_many([buf.data])[0]
    assert np.abs(back - piece).max() <= 1e-6 * np.ptp(piece)
    # Escapes are stored verbatim: the spike comes back exactly.
    assert back.flat[piece.size // 2] == piece.flat[piece.size // 2]


@pytest.mark.parametrize("codec", EBLCS)
def test_corrupt_stream_in_a_batch_fails_as_alone(codec):
    """A truncated or flipped stream at any position of a batch raises the
    typed error it raises alone; a corrupt stream that decodes alone
    decodes to the same bits in the batch."""
    comp = get_compressor(codec)
    pieces = chunk_array(walk((12, 10), 8), 3)
    clean = [b.data for b in comp.compress_many(pieces, 1e-3)]
    expect = comp.decompress_many(clean)
    target = clean[1]
    cuts = list(truncations(target, codec))
    step = max(1, len(cuts) // 12)
    cases = []
    for n, (label, bad) in enumerate(cuts[::step] + list(bit_flips(target, codec, 12))):
        at = n % 3
        batch = clean[:at] + [bad] + clean[at + 1:]
        cases.append((label, (at, bad, batch)))

    def run(case):
        at, bad, batch = case
        try:
            alone = comp.decompress(bad)
        except Exception as exc:  # noqa: BLE001 - compared with the batch below
            alone = exc
        try:
            together = comp.decompress_many(batch)
        except Exception as exc:  # noqa: BLE001
            together = exc
        return at, alone, together

    for label, _, (at, alone, together) in outcomes(run, cases):
        if isinstance(alone, BaseException):
            assert isinstance(alone, DecompressionError), f"{label}: {alone!r}"
            assert type(together) is type(alone), f"{label}: {together!r}"
            assert str(together) == str(alone), label
            continue
        assert not isinstance(together, BaseException), f"{label}: {together!r}"
        for i, array in enumerate(together):
            want = alone if i == at else expect[i]
            assert array.dtype == want.dtype and array.tobytes() == want.tobytes()


# -- batched kernels against the reference oracles ------------------------------


def _pieces(rng, n, shape):
    """``n`` pieces of ``shape`` at widely different scales, so their
    bounds differ; one is noise, so it escapes at the tight bound."""
    out = [walk(shape, int(rng.integers(1 << 30))) * 10.0 ** k for k in range(n)]
    out[-1] = rng.standard_normal(shape) * 50.0
    return out


@pytest.mark.parametrize("seed", range(3))
def test_quantizer_per_piece_bounds_match_reference(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4, 64)) * 10.0 ** rng.integers(-3, 4, (4, 1))
    preds = values + rng.standard_normal((4, 64)) * 10.0 ** rng.integers(-4, 5, (4, 1))
    bounds = 10.0 ** rng.uniform(-6, 0, 4)
    codes, recon = LinearQuantizer(bounds[:, None], max_code=1000).quantize_codes(
        values, preds
    )
    for i, bound in enumerate(bounds):
        ref_codes, _, ref_recon = reference_quantize(
            LinearQuantizer(bound, max_code=1000), values[i], preds[i]
        )
        assert (codes[i] == ref_codes).all()
        assert recon[i].tobytes() == ref_recon.tobytes()


@pytest.mark.parametrize("block", [(128,), (16, 16), (6, 6, 6)])
def test_lorenzo_walk_of_several_pieces_matches_reference(block):
    rng = np.random.default_rng(len(block))
    counts = [3, 1, 5]
    pieces = [
        np.cumsum(rng.standard_normal((n,) + block), axis=1) * 10.0 ** k
        for k, n in enumerate(counts)
    ]
    pieces[-1][:, 0] = 1e9  # escapes at every block's first position
    bounds = [1e-3, 0.5, 2.0]
    stacked = np.concatenate(pieces)
    quantizer = LinearQuantizer(np.repeat(bounds, counts))
    codes, recon, _ = lorenzo_encode_blocks(stacked, quantizer)
    outliers = stacked.reshape(-1)[codes.reshape(-1) == 0]
    esc = codes.reshape(-1) == 0
    slots = np.where(esc, np.cumsum(esc) - 1, -1).reshape(codes.shape)
    decoded = lorenzo_decode_blocks(codes, outliers, slots, quantizer)
    first = 0
    for piece, bound, n in zip(pieces, bounds, counts):
        rows = slice(first, first + n)
        first += n
        ref_codes, ref_recon, _ = reference_lorenzo_encode(piece, LinearQuantizer(bound))
        assert (codes[rows] == ref_codes).all()
        assert recon[rows].tobytes() == ref_recon.tobytes()
        piece_out = piece.reshape(-1)[ref_codes.reshape(-1) == 0]
        piece_esc = ref_codes.reshape(-1) == 0
        piece_slots = np.where(piece_esc, np.cumsum(piece_esc) - 1, -1)
        expected = reference_lorenzo_decode(
            ref_codes, piece_out, piece_slots.reshape(ref_codes.shape),
            LinearQuantizer(bound),
        )
        assert decoded[rows].tobytes() == expected.tobytes()


def _qoz_bound(abs_bound, alpha=1.5, beta=4.0):
    return lambda level: abs_bound / min(alpha ** max(level - 1, 0), beta)


@pytest.mark.parametrize("shape", [(33,), (9, 14), (5, 6, 7)])
@pytest.mark.parametrize("qoz", [False, True])
def test_interpolation_sweep_of_several_pieces_matches_reference(shape, qoz):
    rng = np.random.default_rng(len(shape) + 10 * qoz)
    pieces = _pieces(rng, 4, shape)
    bounds = [1e-6 * np.ptp(p) if i == 3 else 1e-2 * np.ptp(p)
              for i, p in enumerate(pieces)]
    level_bounds = [_qoz_bound(b) if qoz else None for b in bounds]
    anchors, modes, codes, outliers, recon = interp_encode_many(
        np.stack(pieces), bounds, level_bounds
    )
    assert outliers[3].size, "the noise piece must escape"
    decoded = interp_decode_many(
        shape, bounds, anchors, modes, codes, outliers, level_bounds
    )
    for i, (piece, bound, level_bound) in enumerate(zip(pieces, bounds, level_bounds)):
        ref = reference_interp_encode(piece, bound, level_bound)
        got = (anchors[i], modes[i], codes[i], outliers[i], recon[i])
        for name, a, b in zip(("anchors", "modes", "codes", "outliers", "recon"),
                              got, ref):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (i, name)
        expected = reference_interp_decode(shape, bound, *ref[:4], level_bound)
        assert decoded[i].tobytes() == expected.tobytes(), i
