"""Canonical Huffman codec: roundtrips, compactness, malformed streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import (
    MAX_CODE_LENGTH,
    PEEK_BITS,
    HuffmanCodec,
    _build_peek_table,
    _canonical_codes,
    _code_lengths,
    huffman_decode,
    huffman_encode,
    huffman_max_bytes,
)
from repro.errors import DecompressionError

from hostile import outcomes
from reference.huffman import (
    reference_code_lengths,
    reference_huffman_decode,
    reference_peek_table,
)


class TestRoundtrip:
    def test_simple(self):
        syms = np.array([1, 2, 1, 1, 3, 2, 1, 1, 1], dtype=np.int64)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_empty(self):
        out = huffman_decode(huffman_encode(np.zeros(0, dtype=np.int64)))
        assert out.size == 0

    def test_single_distinct_symbol(self):
        syms = np.full(1000, 42, dtype=np.int64)
        blob = huffman_encode(syms)
        np.testing.assert_array_equal(huffman_decode(blob), syms)
        assert len(blob) < 64  # degenerate alphabet must stay tiny

    def test_two_symbols(self):
        syms = np.array([0, 1] * 500, dtype=np.int64)
        blob = huffman_encode(syms)
        np.testing.assert_array_equal(huffman_decode(blob), syms)
        # ~1 bit/symbol plus header.
        assert len(blob) < 1000 // 8 + 64

    def test_large_alphabet(self, rng):
        syms = rng.integers(0, 5000, size=20000)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_skewed_distribution_beats_flat_coding(self, rng):
        # Geometric-ish: mostly 0/1 — entropy far below log2(alphabet).
        syms = rng.geometric(0.7, size=30000) - 1
        blob = huffman_encode(syms)
        assert len(blob) * 8 < 0.5 * 30000 * np.log2(syms.max() + 2)

    def test_long_codes_exercise_slow_path(self):
        # Exponential frequencies force codes longer than the 12-bit table.
        parts = [np.full(2**i, i, dtype=np.int64) for i in range(18)]
        syms = np.concatenate(parts)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            huffman_encode(np.array([-1, 2]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            huffman_encode(np.zeros((2, 2), dtype=np.int64))

    def test_truncated_header(self):
        with pytest.raises(DecompressionError):
            huffman_decode(b"\x01\x02")

    def test_truncated_payload(self):
        blob = huffman_encode(np.arange(100, dtype=np.int64))
        with pytest.raises(DecompressionError):
            huffman_decode(blob[: len(blob) // 2])

    def test_corrupt_code_length_raises_decompression_error(self):
        # Flip a stored length past MAX_CODE_LENGTH: must stay a
        # DecompressionError, never an arithmetic overflow.
        blob = bytearray(huffman_encode(np.arange(10, dtype=np.int64)))
        lengths_off = 10 + 10 * 8  # header + symbol table
        blob[lengths_off] = 200
        with pytest.raises(DecompressionError):
            huffman_decode(bytes(blob))

    def test_random_corruption_never_escapes_decompression_error(self, rng):
        # Single-bit corruption anywhere in the stream must either decode
        # (to garbage) or raise DecompressionError — nothing else.
        good = huffman_encode(rng.geometric(0.4, size=2000) - 1)
        for _ in range(300):
            blob = bytearray(good)
            blob[rng.integers(0, len(blob))] ^= 1 << rng.integers(0, 8)
            try:
                huffman_decode(bytes(blob))
            except DecompressionError:
                pass

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=500).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    def test_roundtrip_property(self, syms):
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_max_bytes_bounds_every_stream(self, rng):
        deep = np.repeat(np.arange(20), _fibonacci(20))  # codes up to 19 bits
        for syms in (
            np.zeros(5, dtype=np.int64),
            np.arange(2, dtype=np.int64),
            np.arange(70000, dtype=np.int64) % 65535,
            rng.integers(0, 2**40, 3000),
            deep,
        ):
            assert len(huffman_encode(syms)) <= huffman_max_bytes(syms.size)


class TestCodecObject:
    def test_instances_are_stateless(self):
        c = HuffmanCodec()
        a = np.array([1, 1, 2], dtype=np.int64)
        b = np.array([9, 8, 9, 9], dtype=np.int64)
        blob_a = c.encode(a)
        blob_b = c.encode(b)
        np.testing.assert_array_equal(c.decode(blob_a), a)
        np.testing.assert_array_equal(c.decode(blob_b), b)

    def test_one_symbol_declared_size_is_capped(self):
        import struct

        from repro.compressors.base import MAX_DECLARED_ELEMENTS

        blob = huffman_encode(np.full(10, 7, dtype=np.int64))
        _, n_distinct, bits = struct.unpack_from("<IHI", blob)
        assert n_distinct == 1
        for n in (MAX_DECLARED_ELEMENTS + 1, 2**32 - 1):
            forged = struct.pack("<IHI", n, n_distinct, bits) + blob[10:]
            with pytest.raises(DecompressionError, match="cap"):
                huffman_decode(forged)
        forged = struct.pack("<IHI", 33, n_distinct, bits) + blob[10:]
        np.testing.assert_array_equal(huffman_decode(forged), np.full(33, 7))

    @pytest.mark.parametrize("distinct", (1, 3))
    def test_symbol_value_past_int64_raises(self, distinct):
        blob = bytearray(huffman_encode(np.arange(distinct).repeat(5)))
        blob[10 + 7] |= 0x80  # top bit of the first stored value
        with pytest.raises(DecompressionError, match="int64"):
            huffman_decode(bytes(blob))

    def test_deterministic(self):
        syms = np.array([3, 1, 4, 1, 5, 9, 2, 6] * 10, dtype=np.int64)
        assert huffman_encode(syms) == huffman_encode(syms)


# -- reference equivalence -----------------------------------------------------


def _fibonacci(n):
    fib = [1, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return np.array(fib[:n], dtype=np.int64)


def _assert_same_tables(freqs):
    lengths = _code_lengths(freqs)
    expected = reference_code_lengths(freqs)
    assert lengths.dtype == expected.dtype
    assert lengths.tobytes() == expected.tobytes()
    present = np.flatnonzero(lengths)
    if present.size < 2:
        return
    _, sorted_lens, codes = _canonical_codes(np.arange(present.size), lengths[present])
    idx, ln = _build_peek_table(sorted_lens)
    ref_idx, ref_ln = reference_peek_table(sorted_lens, codes)
    assert idx.tobytes() == ref_idx.tobytes()
    assert ln.tobytes() == ref_ln.tobytes()


class TestReferenceEquivalence:
    """Two-queue code lengths and the one-``repeat`` peek table equal the
    heap and per-length references on the same frequencies."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0), st.integers(1, 4), st.integers(1, 2**40)
            ),
            min_size=1,
            max_size=600,
        ).map(lambda xs: np.array(xs, dtype=np.int64))
    )
    def test_random_frequencies(self, freqs):
        _assert_same_tables(freqs)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1, 1, 2, 3, 4, 6, 8]), min_size=1, max_size=300)
        .map(lambda xs: np.array(xs, dtype=np.int64))
    )
    def test_tie_heavy_frequencies(self, freqs):
        # Few distinct weights, many of them sums of others: merged nodes
        # keep tying with leaves, where the leaf must win as in the heap.
        _assert_same_tables(freqs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_fibonacci_alphabets(self, depth, seed):
        freqs = _fibonacci(depth)
        freqs = freqs[np.random.default_rng(seed).permutation(depth)]
        _assert_same_tables(freqs)

    def test_deeper_than_max_code_length(self):
        freqs = _fibonacci(MAX_CODE_LENGTH + 12)
        # The unlimited tree is deeper than the cap; the limiter must kick in.
        assert reference_code_lengths(freqs).max() == MAX_CODE_LENGTH
        _assert_same_tables(freqs)
        _assert_same_tables(np.concatenate([np.zeros(5, np.int64), freqs[::-1]]))

    def test_equal_frequencies_and_ties(self):
        for freqs in (np.ones(257, np.int64), np.full(4096, 7, np.int64),
                      np.array([3, 3, 3, 1, 1, 2, 2, 0, 6], np.int64)):
            _assert_same_tables(freqs)

    def test_peek_table_with_long_codes(self):
        freqs = 2 ** np.arange(20, dtype=np.int64)
        lengths = _code_lengths(freqs)
        assert lengths.max() > PEEK_BITS
        _assert_same_tables(freqs)


# -- decoder equivalence -------------------------------------------------------


def _stream(kind, seed, size):
    """A symbol stream of one of the regimes the decoder must handle."""
    r = np.random.default_rng(seed)
    if kind == "geometric":
        return r.geometric(r.uniform(0.05, 0.9), size) - 1
    if kind == "heavy-tailed":
        # Fibonacci counts over 15-18 symbols give a chain of codes up to
        # 14-17 bits, past PEEK_BITS; the most common symbol takes `size`
        # extra copies, which leaves the chain as it is.  The two rarest
        # symbols, the longest codes, end the stream, where their windows
        # run into the zero padding.
        depth = int(r.integers(15, 19))
        counts = _fibonacci(depth)
        counts[-1] += size
        body = r.permutation(np.repeat(np.arange(2, depth), counts[2:]))
        return r.permutation(depth)[np.concatenate([body, r.permutation(2)])]
    if kind == "power-of-two":
        width = int(r.integers(1, 11))
        reps = -(-size // 2**width)
        return r.permutation(np.tile(np.arange(2**width), reps))
    values = r.choice(2**40, size=int(r.integers(1, 4)), replace=False)
    return values[r.integers(0, values.size, size)]


def _corruptions(blob, seed):
    """``blob``, seeded truncations of it and copies with 1-3 bits flipped."""
    r = np.random.default_rng(seed)
    yield "clean", blob
    for cut in r.integers(0, len(blob), 6):
        yield f"[:{cut}]", blob[:cut]
    for _ in range(12):
        corrupt = bytearray(blob)
        bits = r.choice(8 * len(blob), size=int(r.integers(1, 4)), replace=False)
        for bit in bits:
            corrupt[bit // 8] ^= 1 << (bit % 8)
        yield f"flip {sorted(bits.tolist())}", bytes(corrupt)


def _both_decodes(case):
    blob, n_symbols = case
    got = []
    for decode in (huffman_decode, reference_huffman_decode):
        try:
            got.append(decode(blob, n_symbols))
        except DecompressionError as exc:
            got.append(exc)
    return got


class TestDecoderEquivalence:
    """The anchored decoder returns the pointer-doubling reference's exact
    array on every stream, and raises ``DecompressionError`` on exactly the
    streams the reference rejects."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["geometric", "heavy-tailed", "power-of-two", "few"]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3000),
    )
    def test_matches_reference_on_clean_and_corrupt_streams(self, kind, seed, size):
        syms = _stream(kind, seed, size)
        blob = huffman_encode(syms)
        n_distinct = np.unique(syms).size
        if kind == "heavy-tailed":
            lengths = blob[10 + 8 * n_distinct :][:n_distinct]
            assert max(lengths) > PEEK_BITS
        # Only the 2**31 cap bounds a one-symbol stream's declared count, so
        # its corrupt copies decode against the known count, as the codecs do.
        n_symbols = syms.size if n_distinct == 1 else None
        cases = (
            (f"{kind} seed {seed} {label}", (data, n_symbols))
            for label, data in _corruptions(blob, seed)
        )
        for label, _, pair in outcomes(_both_decodes, cases):
            # Any error but DecompressionError escapes _both_decodes.
            assert not isinstance(pair, BaseException), f"{label}: {pair!r}"
            got, want = pair
            if isinstance(want, DecompressionError):
                assert isinstance(got, DecompressionError), f"{label}: {got!r}"
            else:
                assert isinstance(got, np.ndarray), f"{label}: {got!r}"
                assert got.dtype == want.dtype, label
                assert got.tobytes() == want.tobytes(), label
        np.testing.assert_array_equal(huffman_decode(blob), syms)
