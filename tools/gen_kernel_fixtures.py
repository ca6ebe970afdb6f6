#!/usr/bin/env python
"""Regenerate the frozen kernel-stream fixtures under ``tests/fixtures/``.

The fixtures pin the *on-disk byte format* of the entropy/bitstream kernels:
every case stores both the deterministic input and the encoded stream bytes.
``tests/test_kernel_fixtures.py`` asserts that the current implementation
still produces byte-identical streams (forward compat) and decodes the
frozen streams to the original arrays (backward compat), so the vectorized
kernels can be rewritten freely without silently forking the format.

Run from the repo root::

    PYTHONPATH=src python tools/gen_kernel_fixtures.py
    PYTHONPATH=src python tools/gen_kernel_fixtures.py --check

Only rerun this when the byte format changes *intentionally*; the diff of
the regenerated ``.npz`` is then part of the format-change review.
``--check`` writes nothing: it regenerates every case in memory and exits 1
if any array (input or stream blob) differs from the committed ``.npz``, or
if a case was added or removed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.compressors import get_compressor  # noqa: E402
from repro.compressors.bitstream import pack_bits  # noqa: E402
from repro.compressors.huffman import huffman_encode  # noqa: E402

FIXTURE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "tests"
    / "fixtures"
    / "kernel_streams.npz"
)


def _as_bytes_array(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.uint8)


def _smooth(shape: tuple[int, ...]) -> np.ndarray:
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, n) for n in shape], indexing="ij")
    out = np.zeros(shape)
    for d, g in enumerate(grids):
        out += np.sin((3 + d) * g + d) * (1.0 + 0.5 * d)
    return out


def huffman_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20260729)
    cases: dict[str, np.ndarray] = {}

    def add(name: str, syms: np.ndarray) -> None:
        syms = np.ascontiguousarray(syms, dtype=np.int64)
        cases[f"huffman/{name}/input"] = syms
        cases[f"huffman/{name}/blob"] = _as_bytes_array(huffman_encode(syms))

    add("empty", np.zeros(0, dtype=np.int64))
    add("single_symbol", np.full(1000, 42, dtype=np.int64))
    add("two_symbols", np.array([0, 1] * 500, dtype=np.int64))
    add("geometric", rng.geometric(0.3, size=50_000) - 1)
    # Quantizer-shaped: mostly small zig-zag codes around 1, sparse outliers (0).
    codes = rng.geometric(0.45, size=40_000)
    codes[rng.random(codes.size) < 0.002] = 0
    add("quantizer_codes", codes)
    add("large_alphabet", rng.integers(0, 5000, size=20_000))
    # Exponential frequencies force canonical codes longer than PEEK_BITS.
    add(
        "long_codes",
        np.concatenate([np.full(2**i, i, dtype=np.int64) for i in range(18)]),
    )
    # Fibonacci frequencies maximize Huffman depth per total count: ~24
    # lengths from ~200k symbols, deep into the slow-path regime.
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    parts = [np.full(f, i, dtype=np.int64) for i, f in enumerate(fib)]
    concat = np.concatenate(parts)
    add("very_long_codes", concat[rng.permutation(concat.size)])
    return cases


def pack_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(987)
    cases: dict[str, np.ndarray] = {}

    def add(name: str, values: np.ndarray, widths: np.ndarray) -> None:
        values = np.ascontiguousarray(values, dtype=np.uint64)
        widths = np.ascontiguousarray(widths, dtype=np.int64)
        cases[f"pack/{name}/values"] = values
        cases[f"pack/{name}/widths"] = widths
        cases[f"pack/{name}/blob"] = _as_bytes_array(pack_bits(values, widths))

    add(
        "mixed",
        np.array([5, 0, 255, 1, 2**64 - 1, 7], dtype=np.uint64),
        np.array([3, 1, 8, 2, 64, 0], dtype=np.int64),
    )
    widths = rng.integers(0, 65, size=3000)
    values = rng.integers(0, 2**63, size=3000, dtype=np.uint64)
    values = np.where(
        widths == 0,
        0,
        values & ((np.uint64(1) << np.maximum(widths, 1).astype(np.uint64)) - np.uint64(1)),
    ).astype(np.uint64)
    add("random", values, widths)
    add(
        "all_64",
        np.array([2**64 - 1, 0, 2**63, 1], dtype=np.uint64),
        np.full(4, 64, dtype=np.int64),
    )
    return cases


def zfp_cases() -> dict[str, np.ndarray]:
    cases: dict[str, np.ndarray] = {}
    comp = get_compressor("zfp")

    def add(name: str, arr: np.ndarray, rel_bound: float) -> None:
        buf = comp.compress(arr, rel_bound)
        cases[f"zfp/{name}/input"] = np.ascontiguousarray(arr)
        cases[f"zfp/{name}/rel_bound"] = np.array([rel_bound], dtype=np.float64)
        cases[f"zfp/{name}/blob"] = _as_bytes_array(buf.data)

    x, y, z = np.meshgrid(*[np.linspace(0.0, 1.0, 12)] * 3, indexing="ij")
    smooth3 = (np.sin(5 * x) * np.cos(4 * y) + z**2).astype(np.float64)
    add("smooth_3d", smooth3, 1e-3)

    rng = np.random.default_rng(31337)
    add("noisy_2d", rng.standard_normal((17, 23)) * 50.0 + 10.0, 1e-4)
    add("ramp_1d", np.linspace(-4.0, 9.0, 301), 1e-5)
    # Huge common exponent + micro-scale range: exercises the raw escape.
    add("raw_escape", 1.0e8 + rng.standard_normal((4, 4, 4)) * 1e-4, 1e-12)
    add("with_zero_blocks", np.pad(smooth3, ((0, 8), (0, 0), (0, 0))), 1e-3)
    return cases


def sz2_cases() -> dict[str, np.ndarray]:
    """SZ2 streams across ranks, dtypes, escapes and 1 to ~4000 blocks.

    Finite inputs go through the public ``compress`` (``rel_bound`` key).
    Non-finite elements are refused there, so those cases pin the codec
    payload of ``_compress_impl`` at a stored ``abs_bound`` instead: the
    Lorenzo walk then sees NaN, ±inf and ±1e300 in its reconstruction.
    """
    cases: dict[str, np.ndarray] = {}
    comp = get_compressor("sz2")

    def add(name: str, arr: np.ndarray, rel_bound: float) -> None:
        cases[f"sz2/{name}/input"] = np.ascontiguousarray(arr)
        cases[f"sz2/{name}/rel_bound"] = np.array([rel_bound], dtype=np.float64)
        cases[f"sz2/{name}/blob"] = _as_bytes_array(comp.compress(arr, rel_bound).data)

    def add_raw(name: str, arr: np.ndarray, abs_bound: float) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        cases[f"sz2/{name}/input"] = arr
        cases[f"sz2/{name}/abs_bound"] = np.array([abs_bound], dtype=np.float64)
        with np.errstate(all="ignore"):
            blob = comp._compress_impl(arr, abs_bound)
        cases[f"sz2/{name}/blob"] = _as_bytes_array(blob)

    rng = np.random.default_rng(20261017)
    add("ramp_1d_one_block", np.linspace(-3.0, 5.0, 100), 1e-4)
    add("walk_1d_f32", np.cumsum(rng.standard_normal(1000)).astype(np.float32), 1e-3)
    noisy = _smooth((40, 37)) + 0.05 * rng.standard_normal((40, 37))
    add("noisy_2d_f32", noisy.astype(np.float32), 1e-3)
    add("smooth_3d", _smooth((12, 10, 9)), 1e-3)
    add("field_4d_f32", _smooth((2, 3, 7, 8)).astype(np.float32), 1e-3)
    # Spikes far beyond the quantizer's code range force outlier escapes.
    spiky = _smooth((13, 11, 7))
    spikes = rng.choice(spiky.size, 40, replace=False)
    spiky.flat[spikes] += rng.standard_normal(40) * 1e3
    add("escapes_3d", spiky, 1e-7)
    add("escapes_2d", rng.standard_normal((33, 20)) * 1e3, 1e-9)
    # ~4000 blocks of 6^3, mostly Lorenzo: an integer random walk, tiled so
    # the stored input stays small.
    walk = np.cumsum(rng.integers(-1, 2, size=(18, 24, 24)), axis=2)
    add("many_blocks_3d_f32", np.tile(walk, (5, 4, 4)).astype(np.float32), 1e-2)

    specials = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0])
    for name, shape in (("nonfinite_1d", (300,)), ("nonfinite_2d", (20, 35)),
                        ("nonfinite_3d", (12, 10, 9)), ("nonfinite_4d", (2, 7, 6, 8))):
        arr = _smooth(shape)
        hit = rng.choice(arr.size, 3 * specials.size, replace=False)
        arr.flat[hit] = np.tile(specials, 3)
        add_raw(name, arr, 1e-3)
    return cases


def interp_cases(codec: str) -> dict[str, np.ndarray]:
    """SZ3 or QoZ streams across ranks 1-4, odd and size-1 axes, loose and
    tight bounds (so both LINEAR and CUBIC passes occur) and escapes.

    A ``params`` key holds the QoZ ``(alpha, beta)`` of the encoder; SZ3
    cases have none.  As for SZ2, the non-finite case pins the codec
    payload at a stored ``abs_bound``.
    """
    cases: dict[str, np.ndarray] = {}
    params = {"qoz": [(1.5, 4.0), (2.0, 8.0)]}.get(codec, [None])

    def add(name: str, arr: np.ndarray, bound: float, which: int = 0,
            raw: bool = False) -> None:
        key = f"{codec}/{name}"
        pair = params[which % len(params)]
        comp = get_compressor(codec, **dict(zip(("alpha", "beta"), pair or ())))
        arr = np.ascontiguousarray(arr)
        cases[f"{key}/input"] = arr
        if pair is not None:
            cases[f"{key}/params"] = np.array(pair, dtype=np.float64)
        cases[f"{key}/{'abs' if raw else 'rel'}_bound"] = np.array([bound])
        if raw:
            with np.errstate(all="ignore"):
                blob = comp._compress_impl(arr, bound)
        else:
            blob = comp.compress(arr, bound).data
        cases[f"{key}/blob"] = _as_bytes_array(blob)

    rng = np.random.default_rng({"sz3": 20261101, "qoz": 20261102}[codec])
    add("walk_1d_f32", np.cumsum(rng.standard_normal(1000)).astype(np.float32), 1e-3)
    add("ramp_1d_pow2", np.linspace(-3.0, 5.0, 257) ** 3, 1e-5, 1)
    noisy = _smooth((40, 37)) + 0.05 * rng.standard_normal((40, 37))
    add("noisy_2d_loose_f32", noisy.astype(np.float32), 1e-2)
    add("smooth_2d_tight", _smooth((33, 65)), 1e-7, 1)
    add("size1_axis_3d", _smooth((1, 33, 20)), 1e-4)
    add("smooth_3d", _smooth((12, 10, 9)), 1e-3, 1)
    add("smooth_3d_tight_f32", _smooth((17, 9, 16)).astype(np.float32), 1e-6)
    add("field_4d_f32", _smooth((2, 3, 7, 8)).astype(np.float32), 1e-3)
    add("walk_4d", np.cumsum(rng.standard_normal((3, 5, 6, 9)), axis=3), 1e-4, 1)
    spiky = _smooth((13, 11, 7))
    spikes = rng.choice(spiky.size, 40, replace=False)
    spiky.flat[spikes] += rng.standard_normal(40) * 1e3
    add("escapes_3d", spiky, 1e-7)
    add("escapes_2d", rng.standard_normal((33, 20)) * 1e3, 1e-9, 1)

    arr = _smooth((12, 10, 9))
    specials = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0])
    arr.flat[rng.choice(arr.size, 2 * specials.size, replace=False)] = np.tile(
        specials, 2
    )
    add("nonfinite_3d", arr, 1e-3, raw=True)
    return cases


def all_cases() -> dict[str, np.ndarray]:
    cases: dict[str, np.ndarray] = {}
    cases.update(huffman_cases())
    cases.update(pack_cases())
    cases.update(zfp_cases())
    cases.update(sz2_cases())
    cases.update(interp_cases("sz3"))
    cases.update(interp_cases("qoz"))
    return cases


def check(cases: dict[str, np.ndarray]) -> int:
    """Exit status of comparing ``cases`` with the committed fixture file."""
    with np.load(FIXTURE_PATH) as committed:
        frozen = {key: committed[key] for key in committed.files}
    differ = sorted(
        key
        for key in set(cases) | set(frozen)
        if key not in cases
        or key not in frozen
        or cases[key].dtype != frozen[key].dtype
        or cases[key].shape != frozen[key].shape
        or cases[key].tobytes() != frozen[key].tobytes()
    )
    for key in differ:
        print(f"differs from {FIXTURE_PATH.name}: {key}")
    if differ:
        return 1
    print(f"{FIXTURE_PATH.name}: all {len(cases)} arrays match")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare regenerated cases with the committed file; write nothing",
    )
    args = parser.parse_args(argv)
    cases = all_cases()
    if args.check:
        return check(cases)
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE_PATH, **cases)
    n_cases = len({k.rsplit("/", 2)[0] + "/" + k.split("/")[1] for k in cases})
    print(f"wrote {FIXTURE_PATH} ({n_cases} cases, {len(cases)} arrays)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
