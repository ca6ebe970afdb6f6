"""Kernel benchmark harness: the repository's performance trajectory.

The figure benches simulate testbed *energies*; this module measures the
actual wall-clock speed of the hot entropy/bitstream kernels that decide
whether compression repays its cost — Huffman encode/decode, variable-width
bit packing/unpacking — and of the ZFP, SZ2, SZ3 and QoZ codecs end to end,
on the whole field and on the field in four leading-axis pieces coded in one
batched call (the ``*_chunked`` rows).  The ``*_tiny`` rows time one call on
the ``tiny`` field, where fixed per-call cost dominates, and the
``*_tiny_bounds`` rows that field at three bounds in one batched call.  Inputs
are representative symbol distributions: quantizer output streams derived
from the synthetic CESM/NYX/HACC fields (tiled to a stable working size),
plus a seeded 1M-symbol synthetic quantizer stream; the codecs run on the
fields themselves.

Results are written to ``BENCH_kernels.json`` (repo root by default) with
per-kernel throughput in MB/s and symbols/s.  Each run folds the previous
run into a bounded ``history`` list and reports the delta, so the perf
trajectory of the kernels is recorded alongside the code.  The JSON schema is
validated by :func:`validate_doc`; CI fails on schema drift, never on
absolute timings.

CLI: ``repro bench kernels [--quick] [--output PATH]`` (see ``docs/cli.md``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import __version__
from repro.compressors import get_compressor
from repro.compressors.bitstream import pack_bits, unpack_bits
from repro.compressors.blocks import chunk_array
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.quantizer import LinearQuantizer
from repro.obs.trace import active_tracer

__all__ = [
    "BENCH_DATASETS",
    "CHUNKED_PIECES",
    "CODEC_KERNELS",
    "DEFAULT_OUTPUT",
    "KERNELS",
    "SCHEMA_VERSION",
    "SYNTHETIC_DATASET",
    "TINY_BOUNDS",
    "TINY_CODECS",
    "KernelInputs",
    "KernelSpec",
    "check_regressions",
    "compare_docs",
    "format_report",
    "kernel_inputs",
    "load_doc",
    "missing_chunked_rows",
    "run_and_report",
    "run_kernels",
    "validate_doc",
    "write_doc",
]

SCHEMA_VERSION = 1
DEFAULT_OUTPUT = "BENCH_kernels.json"
HISTORY_LIMIT = 20
BENCH_DATASETS = ("cesm", "nyx", "hacc")
#: Seeded 1M-symbol quantizer-code stream (entropy kernels only); the
#: acceptance target for the vectorized Huffman decoder is measured here.
SYNTHETIC_DATASET = "synthetic-1m"

_RESULT_FIELDS = {
    "kernel": str,
    "dataset": str,
    "n_symbols": int,
    "n_bytes": int,
    "seconds_per_call": float,
    "mb_per_s": float,
    "sym_per_s": float,
    "calls": int,
}


@dataclass(frozen=True)
class KernelInputs:
    """Per-dataset inputs shared by the kernel preparations.

    ``codes`` is the quantizer symbol stream (what the entropy kernels see in
    the SZ pipelines); ``field`` is the underlying float array for the
    transform-codec kernels (``None`` for the synthetic stream).
    """

    dataset: str
    codes: np.ndarray
    field: np.ndarray | None
    rel_bound: float


@dataclass(frozen=True)
class KernelSpec:
    """A named kernel: ``prepare`` builds a zero-argument timed callable.

    ``prepare`` returns ``(fn, n_symbols, n_bytes)`` — or ``None`` when the
    kernel does not apply to the given inputs (e.g. no float field).
    ``n_bytes`` is the uncompressed array payload the call moves, the basis
    of the MB/s figure.
    """

    name: str
    prepare: Callable[[KernelInputs], "tuple[Callable[[], object], int, int] | None"]


def _widths_from_codes(codes: np.ndarray) -> np.ndarray:
    """Per-code bit widths (the SZX-style truncated-field shape)."""
    return np.maximum(
        1, np.ceil(np.log2(codes.astype(np.float64) + 2.0)).astype(np.int64)
    )


def _prep_huffman_encode(inp: KernelInputs):
    codes = inp.codes
    return (lambda: huffman_encode(codes)), codes.size, codes.nbytes


def _prep_huffman_decode(inp: KernelInputs):
    codes = inp.codes
    blob = huffman_encode(codes)
    return (lambda: huffman_decode(blob)), codes.size, codes.nbytes


def _prep_huffman_decode_field(inp: KernelInputs):
    """Decode one field's own code stream, untiled: a stream of the size
    the SZ codecs decode (6k-16k symbols at ``test`` shapes), where the
    fixed cost per call shows."""
    if inp.field is None:
        return None
    codes = inp.codes[: inp.field.size]
    blob = huffman_encode(codes)
    return (lambda: huffman_decode(blob)), codes.size, codes.nbytes


def _prep_pack_bits(inp: KernelInputs):
    values = inp.codes.astype(np.uint64)
    widths = _widths_from_codes(inp.codes)
    return (lambda: pack_bits(values, widths)), values.size, values.nbytes


def _prep_unpack_bits(inp: KernelInputs):
    values = inp.codes.astype(np.uint64)
    widths = _widths_from_codes(inp.codes)
    packed = pack_bits(values, widths)
    return (lambda: unpack_bits(packed, widths)), values.size, values.nbytes


def _codec_kernel(codec: str, direction: str, n_chunks: int = 1):
    """Prepare a codec round-trip half on the dataset's float field: the
    whole field, or its ``n_chunks`` leading-axis pieces in one batched
    call (the chunked container write and read)."""

    def prepare(inp: KernelInputs):
        if inp.field is None:
            return None
        comp = get_compressor(codec)
        field = inp.field
        pieces = chunk_array(field, n_chunks)
        if direction == "compress":
            fn = lambda: comp.compress_many(pieces, inp.rel_bound)  # noqa: E731
        else:
            blobs = [buf.data for buf in comp.compress_many(pieces, inp.rel_bound)]
            fn = lambda: comp.decompress_many(blobs)  # noqa: E731
        return fn, field.size, field.nbytes

    return prepare


def _tiny_kernel(codec: str, direction: str, bounds: tuple[float, ...] | None):
    """Prepare a codec round-trip half on the dataset's ``tiny`` field, as a
    cold sweep codes it (native dtype): alone at the inputs' bound, or once
    per bound of ``bounds`` in one batched call."""

    def prepare(inp: KernelInputs):
        if inp.field is None:
            return None
        from repro.data import generate

        comp = get_compressor(codec)
        field = np.array(generate(inp.dataset, "tiny"))
        rels = bounds or (inp.rel_bound,)
        fields = [field] * len(rels)
        if direction == "compress":
            fn = lambda: comp.compress_many(fields, rels)  # noqa: E731
        else:
            blobs = [buf.data for buf in comp.compress_many(fields, rels)]
            fn = lambda: comp.decompress_many(blobs)  # noqa: E731
        return fn, field.size * len(rels), field.nbytes * len(rels)

    return prepare


#: Codecs with whole-field rows; each also has ``*_chunked`` rows on the
#: field cut into :data:`CHUNKED_PIECES` leading-axis pieces.
CODEC_KERNELS = ("zfp", "sz2", "sz3", "qoz")
CHUNKED_PIECES = 4
#: Codecs with per-call rows on the ``tiny`` field: ``*_tiny`` codes it
#: alone, ``*_tiny_bounds`` at each of :data:`TINY_BOUNDS` in one call (a
#: cold sweep's batched round-trips of one dataset and codec).
TINY_CODECS = ("zfp", "sz2", "sz3", "qoz", "szx")
TINY_BOUNDS = (1e-4, 1e-3, 1e-2)

KERNELS: tuple[KernelSpec, ...] = (
    KernelSpec("huffman_encode", _prep_huffman_encode),
    KernelSpec("huffman_decode", _prep_huffman_decode),
    KernelSpec("huffman_decode_field", _prep_huffman_decode_field),
    KernelSpec("pack_bits", _prep_pack_bits),
    KernelSpec("unpack_bits", _prep_unpack_bits),
) + tuple(
    KernelSpec(f"{codec}_{direction}{suffix}", _codec_kernel(codec, direction, n))
    for codec in CODEC_KERNELS
    for n, suffix in ((1, ""), (CHUNKED_PIECES, "_chunked"))
    for direction in ("compress", "decompress")
) + tuple(
    KernelSpec(f"{codec}_{direction}{suffix}", _tiny_kernel(codec, direction, bounds))
    for codec in TINY_CODECS
    for bounds, suffix in ((None, "_tiny"), (TINY_BOUNDS, "_tiny_bounds"))
    for direction in ("compress", "decompress")
)


def missing_chunked_rows(doc: dict) -> list[str]:
    """``codec/dataset`` pairs of ``doc``'s results with a whole-field codec
    row but no ``*_chunked`` row of the same direction."""
    rows = {(r["kernel"], r["dataset"]) for r in doc["results"]}
    return [
        f"{kernel}/{dataset}"
        for kernel, dataset in sorted(rows)
        if kernel.rsplit("_", 1)[0] in CODEC_KERNELS
        and kernel.endswith(("_compress", "_decompress"))
        and (f"{kernel}_chunked", dataset) not in rows
    ]


def kernel_inputs(
    dataset: str,
    *,
    rel_bound: float = 1e-3,
    target_symbols: int = 1 << 20,
    scale: str = "test",
) -> KernelInputs:
    """Build the representative symbol stream for ``dataset``.

    Real datasets are quantized against a one-step Lorenzo predictor (the
    previous flattened element) and the resulting code stream is tiled up to
    ``target_symbols`` so throughput numbers are stable across machines.
    """
    if dataset == SYNTHETIC_DATASET:
        rng = np.random.default_rng(20260729)
        codes = rng.geometric(0.45, size=target_symbols).astype(np.int64)
        codes[rng.random(codes.size) < 0.002] = 0
        return KernelInputs(dataset, codes, None, rel_bound)

    from repro.data import generate

    field = np.asarray(generate(dataset, scale), dtype=np.float64)
    span = float(field.max() - field.min())
    abs_bound = rel_bound * (span if span > 0 else 1.0)
    flat = field.ravel()
    pred = np.concatenate(([0.0], flat[:-1]))
    codes = LinearQuantizer(abs_bound).quantize(flat, pred).codes.ravel()
    if codes.size and codes.size < target_symbols:
        codes = np.tile(codes, -(-target_symbols // codes.size))[:target_symbols]
    return KernelInputs(dataset, np.ascontiguousarray(codes), field, rel_bound)


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm-up (also materializes any lazy caches)
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    return best


def run_kernels(
    datasets: Iterable[str] | None = None,
    *,
    quick: bool = False,
    repeats: int = 3,
) -> dict:
    """Time every kernel on every dataset; returns a schema-valid document."""
    if datasets is None:
        datasets = BENCH_DATASETS + (SYNTHETIC_DATASET,)
    target = 1 << 16 if quick else 1 << 20
    scale = "tiny" if quick else "test"
    repeats = 1 if quick else repeats
    results = []
    for dataset in datasets:
        inputs = kernel_inputs(dataset, target_symbols=target, scale=scale)
        for spec in KERNELS:
            prepared = spec.prepare(inputs)
            if prepared is None:
                continue
            fn, n_symbols, n_bytes = prepared
            tracer = active_tracer()
            if tracer is None:
                seconds = _best_seconds(fn, repeats)
            else:
                with tracer.span(f"bench:{spec.name}", track=f"bench:{dataset}",
                                 kernel=spec.name, dataset=dataset,
                                 n_symbols=int(n_symbols)):
                    seconds = _best_seconds(fn, repeats)
            results.append(
                {
                    "kernel": spec.name,
                    "dataset": dataset,
                    "n_symbols": int(n_symbols),
                    "n_bytes": int(n_bytes),
                    "seconds_per_call": float(seconds),
                    "mb_per_s": float(n_bytes / seconds / 1e6),
                    "sym_per_s": float(n_symbols / seconds),
                    "calls": int(repeats) + 1,
                }
            )
            if tracer is not None:
                base = f"bench.{spec.name}.{dataset}"
                tracer.metrics.gauge(f"{base}.mb_per_s").set(n_bytes / seconds / 1e6)
                tracer.metrics.gauge(f"{base}.sym_per_s").set(n_symbols / seconds)
    return {
        "schema_version": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "repro_version": __version__,
        "quick": bool(quick),
        "results": results,
        "history": [],
    }


def validate_doc(doc: object) -> None:
    """Raise ``ValueError`` if ``doc`` drifts from the benchmark JSON schema."""
    if not isinstance(doc, dict):
        raise ValueError("benchmark document must be a JSON object")
    required = {
        "schema_version": int,
        "created": str,
        "repro_version": str,
        "quick": bool,
        "results": list,
        "history": list,
    }
    for key, typ in required.items():
        if key not in doc:
            raise ValueError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], typ):
            raise ValueError(f"key {key!r} must be {typ.__name__}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc['schema_version']} != expected {SCHEMA_VERSION}"
        )
    if not doc["results"]:
        raise ValueError("results must be non-empty")
    for i, rec in enumerate(doc["results"]):
        if not isinstance(rec, dict):
            raise ValueError(f"results[{i}] must be an object")
        for key, typ in _RESULT_FIELDS.items():
            if key not in rec:
                raise ValueError(f"results[{i}] missing key {key!r}")
            value = rec[key]
            if typ is float:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"results[{i}].{key} must be a number")
            elif not isinstance(value, typ) or isinstance(value, bool) != (typ is bool):
                raise ValueError(f"results[{i}].{key} must be {typ.__name__}")
        if rec["seconds_per_call"] <= 0:
            raise ValueError(f"results[{i}].seconds_per_call must be positive")
    # The trail holds earlier runs in the same shape, minus their history.
    for i, run in enumerate(doc["history"]):
        if not isinstance(run, dict) or "history" in run:
            raise ValueError(f"history[{i}] must be a run without its own history")
        try:
            validate_doc(dict(run, history=[]))
        except ValueError as exc:
            raise ValueError(f"history[{i}]: {exc}") from None


def load_doc(path: str) -> dict:
    """Load and validate a benchmark document."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_doc(doc)
    return doc


def write_doc(path: str, doc: dict, previous: dict | None = None) -> dict:
    """Write ``doc``, folding ``previous`` into the bounded history trail.

    Returns the document as written (history merged).
    """
    if previous is not None:
        trail = [
            {k: v for k, v in previous.items() if k != "history"}
        ] + previous.get("history", [])
        doc = dict(doc, history=trail[:HISTORY_LIMIT])
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def compare_docs(old: dict, new: dict) -> list[dict]:
    """Per-(kernel, dataset) speedup of ``new`` over ``old`` (>1 is faster).

    Records are only compared at equal ``n_symbols`` — a ``--quick`` run
    against a stored full run would otherwise report input-size ratios as
    speedups (e.g. in CI, where the committed full run is present).
    """
    prev = {(r["kernel"], r["dataset"]): r for r in old["results"]}
    deltas = []
    for rec in new["results"]:
        before = prev.get((rec["kernel"], rec["dataset"]))
        if before is None or before["n_symbols"] != rec["n_symbols"]:
            continue
        deltas.append(
            {
                "kernel": rec["kernel"],
                "dataset": rec["dataset"],
                "old_seconds_per_call": before["seconds_per_call"],
                "new_seconds_per_call": rec["seconds_per_call"],
                "speedup": before["seconds_per_call"] / rec["seconds_per_call"],
            }
        )
    return deltas


def format_report(doc: dict, deltas: list[dict] | None = None) -> str:
    """Human-readable table of one run, with deltas vs the previous run."""
    from repro.core.report import format_table

    by_key = {(d["kernel"], d["dataset"]): d for d in (deltas or [])}
    headers = ["kernel", "dataset", "symbols", "MB/s", "Msym/s", "s/call", "vs prev"]
    rows = []
    for rec in doc["results"]:
        delta = by_key.get((rec["kernel"], rec["dataset"]))
        rows.append(
            [
                rec["kernel"],
                rec["dataset"],
                f"{rec['n_symbols']:,}",
                f"{rec['mb_per_s']:.1f}",
                f"{rec['sym_per_s'] / 1e6:.2f}",
                f"{rec['seconds_per_call']:.4f}",
                f"{delta['speedup']:.2f}x" if delta else "-",
            ]
        )
    title = f"kernel benchmarks ({'quick' if doc['quick'] else 'full'})"
    return format_table(headers, rows, title=title)


def check_regressions(deltas: list[dict], max_regression_pct: float) -> None:
    """Raise :class:`BenchmarkRegression` if any kernel slowed past the budget.

    A delta regresses when its speedup falls below ``1 / (1 + pct/100)`` —
    i.e. the new run takes more than ``pct`` percent longer per call than the
    previous run at equal ``n_symbols``.  Deltas already exclude mismatched
    input sizes (see :func:`compare_docs`), so a ``--quick`` run is only ever
    gated against another quick run.
    """
    from repro.errors import BenchmarkRegression

    threshold = 1.0 / (1.0 + max_regression_pct / 100.0)
    offenders = [d for d in deltas if d["speedup"] < threshold]
    if offenders:
        raise BenchmarkRegression(max_regression_pct, offenders)


def run_and_report(
    output: str = DEFAULT_OUTPUT,
    *,
    datasets: Iterable[str] | None = None,
    quick: bool = False,
    repeats: int = 3,
    max_regression_pct: float | None = None,
    emit: Callable[[str], None] = print,
) -> dict:
    """The round-trip the CLI drives: load previous → run → compare → write.

    Returns the new document (with the history trail already folded in).
    With ``max_regression_pct`` set, raises :class:`BenchmarkRegression`
    after the document is written (the run is recorded either way — CI gets
    both the failure and the artifact) if any comparable kernel slowed down
    by more than that percentage.
    """
    import os

    previous = None
    if os.path.exists(output):
        try:
            previous = load_doc(output)
        except (ValueError, json.JSONDecodeError) as exc:
            emit(f"ignoring unreadable previous run at {output}: {exc}")
    doc = run_kernels(datasets, quick=quick, repeats=repeats)
    deltas = compare_docs(previous, doc) if previous else []
    doc = write_doc(output, doc, previous)
    emit(format_report(doc, deltas))
    if previous:
        emit(
            f"\ncompared against previous run from {previous['created']} "
            f"({len(doc.get('history', []))} runs in history trail)"
        )
    emit(f"wrote {output}")
    if max_regression_pct is not None:
        check_regressions(deltas, max_regression_pct)
    return load_doc(output)
