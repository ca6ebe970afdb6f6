"""``dataset-io``: façade write then read of one seeded 4-variable dataset.

One op is ``repro.dataset.write`` of the cesm/hacc/nyx/s3d fields (made by
``repro.data.<name>.generate_<name>(shape, seed)`` at the ``test`` shapes)
under one explicit ``lossy,<codec>,rel,<bound>`` spec, followed by
``repro.dataset.read`` of the file.  A cycle is one op per (codec, bound)
pair; successive ops alternate between hdf5 and netcdf and between 1 and 4
chunks.  A run measures whole cycles.  The seed makes the fields.

Every op is checked: each read variable honours its error bound, and is
bit-identical to an independent ``get_compressor(c).decompress`` of the
stream stored for it.  An op that runs again (next cycle, or traced) must
write the same number of bytes.
"""

from __future__ import annotations

import itertools
import statistics
import time
import zlib
from contextlib import ExitStack

import numpy as np

from common import (
    Deadline,
    Result,
    codec_metrics,
    host_seconds,
    layer_self_times,
    nominal,
    scratch_dir,
    setup_seconds,
    spanned,
    spans_within,
    sub_seed,
    total_duration,
    trace_overhead,
)

CODECS = ("sz2", "sz3", "qoz", "zfp", "szx")
BOUNDS = (1e-2, 1e-4)
FIELDS = ("cesm", "hacc", "nyx", "s3d")
LIBS = ("hdf5", "netcdf")
SZ3_STAGES = ("interp_encode_s", "huffman_encode_s", "backend_s",
              "huffman_decode_s", "interp_decode_s")
CHUNKS = (1, 4)
#: Catalogue scale of the fields (0.25 MB per dataset).  At ``bench`` (2.2 MB)
#: one cycle takes 45 s on a 2-core host, 30 s of it in zfp, and a traced run
#: 140 s; at ``test`` a run holds several cycles, so per-op medians settle.
SCALE = "test"


def setup(seed: int):
    """The run's dataset: four seeded fields at the catalogue SCALE shapes."""
    from repro.data.cesm import generate_cesm
    from repro.data.hacc import generate_hacc
    from repro.data.nyx import generate_nyx
    from repro.data.registry import get_dataset
    from repro.data.s3d import generate_s3d
    from repro.dataset import Dataset

    seeds = np.random.default_rng(sub_seed(seed)).integers(0, 2**31, len(FIELDS))
    shape = {name: get_dataset(name).scales[SCALE] for name in FIELDS}
    arrays = {
        "cesm": generate_cesm(shape["cesm"], int(seeds[0])),
        "hacc": generate_hacc(shape["hacc"][0], int(seeds[1])),
        "nyx": generate_nyx(shape["nyx"], int(seeds[2])),
        "s3d": generate_s3d(shape["s3d"], int(seeds[3])),
    }
    dataset = Dataset.from_arrays(arrays, attrs={"seed": str(seed)})
    _warm_up()
    return dataset


def _warm_up():
    """A tiny write+read per codec and library, so lazy imports and
    first-call costs land in set-up rather than in the first timed op."""
    from repro.dataset import Dataset, read, write

    tiny = Dataset.from_arrays({"x": np.random.default_rng(0).random((8, 8, 8))})
    with scratch_dir("warm-up") as tmp:
        for codec, lib in zip(CODECS, itertools.cycle(LIBS)):
            write(tiny, tmp / "warm", f"lossy,{codec},rel,1e-3", io_library=lib)
            read(tmp / "warm")


#: One cycle: (codec, bound, io_library, n_chunks) per op.  The library
#: alternates with the bound and the chunk count with (codec, bound), so
#: every codec is written to both containers, chunked and whole.  The order
#: is fixed: the peak RSS of a run depends on which op runs first.
CYCLE = tuple(
    (codec, bound, LIBS[b], CHUNKS[(c + b) % 2])
    for c, codec in enumerate(CODECS)
    for b, bound in enumerate(BOUNDS)
)


def _check(dataset, path, op, back) -> list[str]:
    """Error-bound and stream-identity violations of one written file."""
    from repro.compressors import get_compressor
    from repro.compressors.base import Compressor
    from repro.errors import ErrorBoundViolation
    from repro.iolib import get_io_library
    from repro.metrics.error import check_error_bound

    codec, bound, lib, _ = op
    with open(path, "rb") as fh:
        members, attrs = get_io_library(lib).unpack(fh.read())
    problems = []
    for var in dataset:
        got = back[var.name].data
        try:
            check_error_bound(var.data, got, bound)
        except ErrorBoundViolation as exc:
            problems.append(f"{op} {var.name}: {exc}")
        n_chunks = int(attrs.get(f"chunks/{var.name}", "0"))
        keys = [f"{var.name}/{i:05d}" for i in range(n_chunks)] or [var.name]
        parts = []
        for key in keys:
            stream = bytes(members[key])
            stream_codec = Compressor._unpack_header(stream)[0]
            if stream_codec != codec:
                problems.append(f"{op} {key}: stream codec {stream_codec}")
            parts.append(get_compressor(stream_codec).decompress(stream))
        expect = np.concatenate(parts, axis=0)
        if got.dtype != expect.dtype or not np.array_equal(got, expect):
            problems.append(f"{op} {var.name}: read differs from decompress")
    return problems


def _run_op(dataset, path, op):
    """Time one write+read; returns (write_s, read_s, report, read dataset)."""
    from repro.dataset import read, write

    codec, bound, lib, n_chunks = op
    t0 = time.perf_counter()
    report = write(
        dataset, path, f"lossy,{codec},rel,{bound}",
        io_library=lib, n_chunks=n_chunks,
    )
    t1 = time.perf_counter()
    back = read(path)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, report, back


def _measure_cycle(result, dataset, ops, workdir, clock=None, after_op=None):
    """Run and check ops; returns per-op rows
    ``(op, write_s, read_s, bytes_written, window, host_s)``.

    ``window`` is ``(clock() before write, clock() after read)`` when a
    clock is given, so traced spans can be cut to the timed calls;
    ``host_s`` is the reference kernel timed just before and after the op.
    ``after_op(op)`` runs after each op, outside its window.
    """
    rows = []
    for op in ops:
        path = workdir / f"op.{op[2]}"
        host_s = host_seconds()
        result.attempted += 1
        try:
            t0 = clock() if clock else 0.0
            write_s, read_s, report, back = _run_op(dataset, path, op)
            window = (t0, clock() if clock else 0.0)
            host_s = (host_s + host_seconds()) / 2
            problems = _check(dataset, path, op, back)
            if after_op is not None:
                after_op(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            result.fail(f"{op}: {type(exc).__name__}: {exc}")
            continue
        if problems:
            result.fail(*problems)
            continue
        rows.append((op, write_s, read_s, report.bytes_written, window, host_s))
    return rows


def _check_bytes(result, rows) -> None:
    """Fail when one op wrote a different byte count in another cycle:
    the same fields under the same spec must give the same file."""
    seen: dict[tuple, int] = {}
    for op, _, _, nbytes, _, _ in rows:
        if seen.setdefault(op, nbytes) != nbytes:
            result.fail(f"{op}: wrote {nbytes} B, earlier {seen[op]} B")


def _report_rates(result, rows, nbytes):
    """Per-codec façade MB/s lines (uncompressed MB over wall seconds)."""
    mb = nbytes / 1e6
    for codec in CODECS:
        w = [r[1] for r in rows if r[0][0] == codec]
        rd = [r[2] for r in rows if r[0][0] == codec]
        if w:
            result.report.append(
                f"write_mbps.{codec} = {mb * len(w) / sum(w):.4g} MB/s   "
                f"read_mbps.{codec} = {mb * len(rd) / sum(rd):.4g} MB/s"
            )


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup_s = setup_seconds("dataset-io", seed)
    dataset = setup(seed)
    with scratch_dir("dataset-io") as workdir:
        if trace:
            _traced(result, dataset, workdir, seconds)
            return result
        deadline = Deadline(seconds)
        rows = []
        index = 0
        while index == 0 or not deadline.expired():
            rows += _measure_cycle(result, dataset, CYCLE, workdir)
            index += 1
    _check_bytes(result, rows)
    _report_rates(result, rows, dataset.nbytes)
    result.report.append(
        f"{index} cycle(s), {len(rows)} ops, {dataset.nbytes} B per dataset"
    )
    result.put_times(setup_s, [(row[1] + row[2], nominal(row[1] + row[2], row[5]))
                               for row in rows], reduce=statistics.geometric_mean)
    return result


# -- traced run ---------------------------------------------------------------


def _sz3_stages(values, abs_bound) -> dict[str, float]:
    """SZ3 stage seconds of one variable, from its public stage functions."""
    from repro.compressors.huffman import huffman_decode, huffman_encode
    from repro.compressors.interpolation import interp_decode, interp_encode

    t0 = time.perf_counter()
    anchors, modes, codes, outliers, _ = interp_encode(values, abs_bound)
    t1 = time.perf_counter()
    huff = huffman_encode(codes)
    t2 = time.perf_counter()
    np.packbits(np.asarray(modes, dtype=np.uint8))
    for raw in (anchors.tobytes(), outliers.tobytes(), huff):
        zlib.compress(raw, 6)
    t3 = time.perf_counter()
    decoded = huffman_decode(huff)
    t4 = time.perf_counter()
    interp_decode(values.shape, abs_bound, anchors, modes, decoded, outliers)
    t5 = time.perf_counter()
    if not np.array_equal(decoded, codes):
        raise RuntimeError("sz3 stage huffman round-trip differs")
    return dict(zip(SZ3_STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)))


def _zfp_stages(values, abs_bound) -> dict[str, float]:
    """ZFP's ``blockify`` plus ``forward_transform`` seconds of one variable.

    The lifted transform runs the same fixed-width int64 vector ops whatever
    the values, so it is timed on the blocks cast to int64; ZFP's own
    block-floating-point conversion stays in ``coder_s``.  ``abs_bound`` is
    unused: neither stage reads it.
    """
    from repro.compressors.blocks import blockify
    from repro.compressors.transform import forward_transform
    from repro.compressors.zfp import _block_for_shape

    block = _block_for_shape(values.shape)
    t0 = time.perf_counter()
    blocks = blockify(values, block)
    t1 = time.perf_counter()
    q = blocks.reshape((len(blocks),) + tuple(b for b in block if b == 4))
    q = q.astype(np.int64)
    t2 = time.perf_counter()
    forward_transform(q)
    return {"transform_s": (t1 - t0) + (time.perf_counter() - t2)}


#: Passes of the stage timings per sz3 or zfp op.  Each pass times the stage
#: functions between the codec's own compress and decompress of the same
#: variable; the coverage ratios compare the two, so host drift between a
#: stage timing and its reference cancels.
STAGE_REPEATS = 3


def _stage_pass(tracer, dataset, codec, bound) -> tuple[dict[str, float], list]:
    """Per-cycle stage seconds of ``codec`` at ``bound`` and the reference
    codec spans recorded alongside them.

    The stages get the float64 values the encoder receives and the absolute
    bound the codec itself wrote into its stream header.
    """
    from repro.compressors import get_compressor
    from repro.compressors.base import Compressor

    stage_fn = _sz3_stages if codec == "sz3" else _zfp_stages
    comp = get_compressor(codec)
    seconds: dict[str, float] = {}
    t0 = tracer.now()
    for _ in range(STAGE_REPEATS):
        for var in dataset:
            buf = comp.compress(var.data, bound)
            abs_bound = Compressor._unpack_header(buf.data)[4]
            values = np.ascontiguousarray(var.data).astype(np.float64, copy=False)
            for key, dt in stage_fn(values, abs_bound).items():
                seconds[key] = seconds.get(key, 0.0) + dt / STAGE_REPEATS
            comp.decompress(buf)
    return seconds, spans_within(tracer.spans, t0, tracer.now())


def _layer(span) -> str:
    name = span.name
    if name.startswith(("compress:", "decompress:")):
        return "codec"
    if name == "tune":
        return "tuner"
    if name.startswith(("pack:", "unpack:")):
        return "iolib"
    return "facade"


def _traced(result, dataset, workdir, seconds):
    """Pairs of one untraced and one traced cycle, alternating which runs
    first, until the deadline; layer numbers are per traced cycle."""
    import repro.dataset
    from repro.dataset.tuner import AutoTuner
    from repro.iolib import get_io_library
    from repro.obs import tracing

    stages: dict[str, dict[str, float]] = {"sz3": {}, "zfp": {}}
    reference, spans, untraced, traced = [], [], [], []
    layers: dict[str, float] = {}

    def traced_cycle():
        def after_op(op):
            codec, bound = op[0], op[1]
            if codec in stages:
                times, own = _stage_pass(tracer, dataset, codec, bound)
                for key, dt in times.items():
                    stages[codec][key] = stages[codec].get(key, 0.0) + dt
                reference.extend(own)

        with tracing() as tracer, ExitStack() as stack:
            for fn in ("write", "read"):
                stack.enter_context(spanned(tracer, repro.dataset, fn, f"facade.{fn}"))
            stack.enter_context(spanned(tracer, AutoTuner, "tune", "tune"))
            for lib in LIBS:
                cls = type(get_io_library(lib))
                stack.enter_context(spanned(tracer, cls, "pack", f"pack:{lib}"))
                stack.enter_context(spanned(tracer, cls, "unpack", f"unpack:{lib}"))
            rows = _measure_cycle(result, dataset, CYCLE, workdir,
                                  clock=tracer.now, after_op=after_op)
            own = [s for row in rows for s in spans_within(tracer.spans, *row[4])]
        # Self times need one tracer's clock; each traced cycle has its own.
        for layer, dt in layer_self_times(own, _layer).items():
            layers[layer] = layers.get(layer, 0.0) + dt
        spans.extend(own)
        traced.extend(rows)

    deadline = Deadline(seconds)
    cycles = 0
    while cycles == 0 or not deadline.expired():
        if cycles % 2 == 0:
            untraced.extend(_measure_cycle(result, dataset, CYCLE, workdir))
        traced_cycle()
        if cycles % 2 == 1:
            untraced.extend(_measure_cycle(result, dataset, CYCLE, workdir))
        cycles += 1
    _check_bytes(result, untraced + traced)
    _put_layers(result, spans, layers, untraced, traced, cycles)
    _put_stages(result, stages, reference, cycles)
    result.report.append(f"{cycles} untraced and {cycles} traced cycle(s)")


def _put_stages(result, stages, reference, cycles):
    """Stage seconds per cycle and their coverage of the codec's own spans."""
    def span_s(name):
        return total_duration(reference, name) / STAGE_REPEATS / cycles

    sz3 = {key: dt / cycles for key, dt in stages["sz3"].items()}
    for key in SZ3_STAGES:
        result.put(f"compressors.sz3.stage.{key}", sz3.get(key, 0.0), "s")
    encode, decode = span_s("compress:sz3"), span_s("decompress:sz3")
    enc_cov = sum(sz3.get(k, 0.0) for k in SZ3_STAGES[:3]) / encode if encode else 0.0
    dec_cov = sum(sz3.get(k, 0.0) for k in SZ3_STAGES[3:]) / decode if decode else 0.0
    result.put("compressors.sz3.stage.encode_coverage", enc_cov, "ratio")
    result.put("compressors.sz3.stage.decode_coverage", dec_cov, "ratio")
    for label, cov, gap in (
        ("encode", enc_cov, "framing and struct packing"),
        ("decode", dec_cov, "zlib inflate of the three chunks and mode unpacking"),
    ):
        if cov < 0.9:
            result.report.append(
                f"FLAG sz3 {label} stage coverage {cov:.3f} < 0.9; gap: {gap}"
            )
    transform = stages["zfp"].get("transform_s", 0.0) / cycles
    result.put("compressors.zfp.stage.transform_s", transform, "s")
    result.put("compressors.zfp.stage.coder_s",
               max(span_s("compress:zfp") - transform, 0.0), "s")


def _put_layers(result, spans, layers, untraced, traced, cycles):
    """Per-cycle layer seconds and exact per-cycle byte counts."""
    for name, (value, unit) in codec_metrics(spans, CODECS).items():
        result.put(name, value / cycles, unit)
    result.put("dataset.tuner.tune_s", total_duration(spans, "tune") / cycles, "s")
    for lib in LIBS:
        for fn in ("pack", "unpack"):
            result.put(f"iolib.{lib}.{fn}_s",
                       total_duration(spans, f"{fn}:{lib}") / cycles, "s")
    result.put("iolib.bytes_written", sum(row[3] for row in traced) / cycles, "B")

    traced_s = sum(row[1] + row[2] for row in traced)
    named = sum(v for k, v in layers.items() if k != "facade")
    result.put("coverage", named / traced_s if traced_s else 0.0, "ratio")
    result.put("trace_overhead", trace_overhead(
        (nominal(u[1] + u[2], u[5]), nominal(t[1] + t[2], t[5]))
        for u, t in zip(untraced, traced) if u[0] == t[0]), "ratio")
    result.report.append("layer self seconds per cycle: " + ", ".join(
        f"{k}={v / cycles:.3f}" for k, v in sorted(layers.items())))
    result.report.append(
        f"gap = dataset facade self time (chunking, concatenation, file I/O, "
        f"container sniffing): {layers.get('facade', 0.0) / cycles:.3f} s of "
        f"{traced_s / cycles:.3f} s traced per cycle"
    )
