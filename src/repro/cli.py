"""Command-line interface: compress, inspect, advise, sweep, list resources.

Usage (after ``pip install -e .``)::

    python -m repro compress INPUT.npy OUTPUT.rpz --codec sz3 --rel-bound 1e-3
    python -m repro decompress OUTPUT.rpz RECON.npy
    python -m repro inspect OUTPUT.rpz
    python -m repro advise --dataset cesm --psnr-min 60 [--dvfs | --checkpoint]
    python -m repro sweep --kind serial --datasets cesm --codecs sz3,szx
    python -m repro dataset write|read|tune ...
    python -m repro cluster run|advise --scenario 'nodes=8; a=ranks:96,codec:szx'
    python -m repro bench kernels --quick
    python -m repro trace summarize TRACE.json
    python -m repro datasets | cpus | codecs

Arrays are exchanged as ``.npy`` files; compressed streams carry their own
codec/geometry header, so ``decompress`` and ``inspect`` need no flags.
``sweep``, ``dataset tune`` and ``cluster run`` evaluate a declarative
experiment grid through the memoizing :mod:`repro.runtime` engine, and every
flag naming a grid axis comes from the registry's axis table.  Each
subcommand's flags are documented in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

from repro import __version__
from repro.compressors import available_compressors, get_compressor
from repro.compressors.base import Compressor
from repro.core.report import format_table, si
from repro.runtime import registry

__all__ = ["main", "build_parser"]


_TRACE_HELP = (
    "write an execution trace to PATH on exit: Chrome trace-event JSON "
    "(Perfetto-loadable) by default, a JSONL span log when PATH ends in "
    ".jsonl (see docs/user-guide/observability.md)"
)

#: Every flag that names a SweepSpec axis, keyed by flag.
_AXES = {axis.flag: axis for axis in registry.SWEEP_AXES if axis.flag}

#: Every flag whose value fills a SweepSpec axis: the axis flags plus the
#: one-value spellings (``--io hdf5`` fills ``io_libraries``).
_SPEC_FLAGS = {
    **_AXES,
    "--dataset": _AXES["--datasets"],
    "--cpu": _AXES["--cpus"],
    "--io": _AXES["--io-libraries"],
}

#: The other flags several subcommands share, each declared once here.
_SHARED = {
    "--dataset": dict(default="cesm", help="catalogue dataset (`repro datasets`)"),
    "--cpu": dict(default="plat8160", help="Table-I CPU name (`repro cpus`)"),
    "--io": dict(default="hdf5", choices=("hdf5", "netcdf"), help="I/O library"),
    "--scale": dict(
        default="test",
        choices=("tiny", "test", "bench"),
        help="synthetic data scale for the real compression measurements",
    ),
    "--json": dict(
        action="store_true",
        help="print the results as JSON; record arrays end with a __meta__ "
        "element carrying engine/store stats",
    ),
    "--trace": dict(default=None, metavar="PATH", help=_TRACE_HELP),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _add_flags(parser, *flags, required=(), **defaults) -> None:
    """Add shared and registry-axis ``flags`` to ``parser``.

    ``defaults`` overrides a flag's default by its dest; a dest listed in
    ``required`` must be given on the command line.
    """
    for flag in flags:
        axis = _AXES.get(flag)
        if axis is None:
            kw = dict(_SHARED[flag])
        elif axis.parse in ("invert", "flag"):
            kw = dict(action="store_true", help=axis.help)
        else:
            kw = dict(type={"float": float, "int": int}.get(axis.parse),
                      default=axis.default, help=axis.help)
        dest = _dest(flag)
        if dest in defaults:
            kw["default"] = defaults[dest]
        if dest in required:
            kw.update(required=True, default=None)
        parser.add_argument(flag, **kw)


def _axis_values(args, *fields) -> dict:
    """SweepSpec values of the axis flags ``args`` carries (only ``fields``
    when named), each converted by :func:`registry.axis_spec_value`."""
    return {
        axis.field: registry.axis_spec_value(axis, getattr(args, _dest(flag)))
        for flag, axis in _SPEC_FLAGS.items()
        if hasattr(args, _dest(flag)) and (not fields or axis.field in fields)
    }


def _command(sub, name: str, func, **kw) -> argparse.ArgumentParser:
    """Add subcommand ``name`` dispatching to ``func``."""
    parser = sub.add_parser(name, **kw)
    parser.set_defaults(func=func)
    return parser


@contextmanager
def _maybe_tracing(path: str | None):
    """Activate a tracer for the block when ``path`` is set; write on exit.

    The trace is written even when the command fails — a failing sweep's
    trace is exactly the one worth reading.  ``None`` path = no tracer, no
    overhead (instrumentation sites see ``active_tracer() is None``).
    """
    if not path:
        yield None
        return
    from repro.obs import tracing, write_trace

    with tracing() as tracer:
        try:
            yield tracer
        finally:
            n = write_trace(tracer, path)
            print(f"trace: {n} events -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware error-bounded lossy compression toolkit "
        "(reproduction of Wilkins et al., arXiv:2410.23497).",
        epilog=(
            "examples:\n"
            "  repro compress field.npy field.rpz --codec sz3 --rel-bound 1e-3\n"
            "  repro advise --dataset s3d --io netcdf --psnr-min 60\n"
            "  repro advise --dataset cesm --dvfs --freqs 1.0,2.1,3.7\n"
            "  repro advise --dataset nyx --checkpoint --mttf 43200 --n-nodes 64\n"
            "  repro sweep --kind io --datasets cesm,s3d --executor process\n"
            "  repro sweep --kind pipeline --datasets nyx --n-chunks 16\n"
            "  repro sweep --kind dvfs --datasets cesm --cpus plat8160\n"
            "  repro sweep --kind checkpoint --datasets cesm --mttfs inf,86400\n"
            "  repro sweep --spec grid.json --cache-dir .sweep-cache\n\n"
            "`repro sweep` evaluates a whole (dataset x codec x bound x CPU x\n"
            "I/O library) grid in one shot — in parallel and memoized, see\n"
            "docs/cli.md and docs/user-guide/sweeps.md."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "compress", _cmd_compress, help="compress a .npy array")
    p.add_argument("input", help="input .npy file (float32/float64)")
    p.add_argument("output", help="output compressed stream")
    p.add_argument("--codec", default="sz3", choices=available_compressors())
    p.add_argument(
        "--rel-bound",
        type=float,
        default=1e-3,
        help="value-range relative error bound (ignored for lossless codecs)",
    )

    p = _command(sub, "decompress", _cmd_decompress,
                 help="reconstruct a compressed stream")
    p.add_argument("input", help="compressed stream produced by `repro compress`")
    p.add_argument("output", help="output .npy file")

    p = _command(sub, "inspect", _cmd_inspect,
                 help="print a compressed stream's metadata")
    p.add_argument("input", help="compressed stream")

    p = _command(sub, "advise", _cmd_advise,
                 help="recommend a (codec, bound) for a dataset (Section III)")
    _add_flags(p, "--dataset", "--io", "--cpu", "--scale", "--codecs", "--bounds",
               "--compression", compression=None)
    p.add_argument("--psnr-min", type=float, default=60.0)
    p.add_argument(
        "--objective", default="energy", choices=("energy", "ratio", "time")
    )
    p.add_argument(
        "--strict-time",
        action="store_true",
        help="also require the Eq. 3 time benefit (paper's strict criterion)",
    )
    p.add_argument(
        "--dvfs",
        action="store_true",
        help="search the (frequency x codec x bound) space and emit the "
        "energy-optimal compress-or-not advice with its Pareto frontier",
    )
    _add_flags(p, "--freqs")
    p.add_argument(
        "--checkpoint",
        action="store_true",
        help="advise at whole-application scale: periodic checkpointing "
        "under failures with the compression-aware Daly interval",
    )
    p.add_argument(
        "--mttf",
        type=float,
        default=86400.0,
        help="--checkpoint: per-node MTTF in seconds (default: one day)",
    )
    _add_flags(p, "--n-nodes", "--work", "--interval", "--downtime", "--seed",
               n_nodes=16)

    p = _command(
        sub,
        "sweep",
        _cmd_sweep,
        help="run an experiment grid through the parallel, memoizing engine",
        description="Expand a declarative sweep spec into (dataset, codec, "
        "bound, CPU, I/O library) grid points, evaluate them — serially or "
        "on a thread/process pool, memoized in a result store — and print "
        "the records as a table (or JSON).",
    )
    p.add_argument(
        "--spec",
        help="JSON file holding a SweepSpec; overrides all grid axis flags",
    )
    p.add_argument(
        "--kind",
        default="serial",
        help="experiment kind, looked up in the runtime registry "
        f"(registered: {', '.join(registry.kind_names())})",
    )
    # Exactly the axes some registered kind consumes, in the canonical
    # order: a plugin kind's axes appear here automatically on registration.
    _add_flags(p, *(axis.flag for axis in registry.cli_axes()))
    p.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "thread", "process"),
        help="how grid points are evaluated",
    )
    p.add_argument(
        "--workers", type=int, default=None, help="pool width (default: CPU count)"
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persist evaluated points as JSON under this directory",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="report how many of this sweep's points --cache-dir already "
        "holds before continuing it (those points answer from the cache)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per grid point after a retryable failure",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point attempt timeout in seconds (thread/process "
        "executors only; the serial loop cannot preempt an attempt)",
    )
    p.add_argument(
        "--on-error",
        default="raise",
        choices=("raise", "collect"),
        help="when a point exhausts its attempts: re-raise (default) or "
        "keep sweeping and report it as a structured failure",
    )
    _add_flags(p, "--scale", "--json")
    p.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line (done/total, cache-hit/retry/"
        "failed tallies) on stderr while the sweep runs",
    )
    _add_flags(p, "--trace")

    p = _command(
        sub,
        "bench",
        _cmd_bench,
        help="run repository micro-benchmarks (kernel perf trajectory)",
        description="Time the hot entropy/bitstream kernels on representative "
        "quantizer-code streams, write BENCH_kernels.json, and report the "
        "delta against the previous run.",
    )
    p.add_argument("suite", choices=("kernels",), help="benchmark suite to run")
    p.add_argument(
        "--quick",
        action="store_true",
        help="small inputs, one repeat (CI smoke mode)",
    )
    p.add_argument(
        "--output",
        default="BENCH_kernels.json",
        help="result JSON path (previous contents become the comparison base)",
    )
    p.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset streams (default: cesm,nyx,hacc,synthetic-1m)",
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per kernel (best-of)"
    )
    p.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if any kernel runs more than PCT%% slower than "
        "the previous run at equal input size",
    )
    _add_flags(p, "--json", "--trace")

    dsub = sub.add_parser(
        "dataset",
        help="write/read/tune datasets through the compression facade",
        description="The enstools-style facade: resolve a compression-spec "
        "string per variable (auto specs search the sweep grid), write the "
        "compressed container, read it back bit-exactly, or just report the "
        "tuning as `dataset`-kind records.",
    ).add_subparsers(dest="dataset_command", required=True)
    facade = ("--datasets", "--compression", "--io", "--scale", "--codecs", "--bounds")
    facade_defaults = dict(datasets="cesm", compression="auto,rel,1e-3")
    p = _command(dsub, "write", _cmd_dataset_write,
                 help="compress per spec and write a container")
    p.add_argument("output", help="container file to write")
    _add_flags(p, *facade, "--n-chunks", "--trace", **facade_defaults, n_chunks=1)
    p = _command(dsub, "read", _cmd_dataset_read, help="read a facade container back")
    p.add_argument("input", help="container file written by `repro dataset write`")
    p.add_argument("--out-dir", default=None,
                   help="also dump each variable as OUT_DIR/<name>.npy")
    p = _command(dsub, "tune", _cmd_dataset_tune,
                 help="resolve specs against the sweep grid (dataset-kind records)")
    _add_flags(p, *facade, "--cpu", "--json", "--trace", **facade_defaults,
               cpu="max9480")

    csub = sub.add_parser(
        "cluster",
        help="multi-tenant cluster scenarios (shared-PFS write contention)",
        description="Simulate a declarative multi-tenant scenario — "
        "FIFO+backfill scheduling, per-tenant checkpoint lifecycles, and "
        "one cluster-wide fair-share PFS solve — or search every "
        "per-tenant compression mix for the machine-wide energy optimum.",
    ).add_subparsers(dest="cluster_command", required=True)
    scenario = ("--scenario", "--dataset", "--cpu", "--io", "--scale")
    p = _command(csub, "run", _cmd_cluster_run, help="simulate one scenario end to end")
    _add_flags(p, *scenario, "--json", "--trace", required=("scenario",),
               dataset="nyx")
    p = _command(csub, "advise", partial(_cmd_advise, mode="cluster"),
                 help="search per-tenant compression mixes for the energy optimum")
    _add_flags(p, *scenario, required=("scenario",), dataset="nyx")

    tsub = sub.add_parser(
        "trace",
        help="inspect trace files written by --trace",
        description="Work with the observability traces the --trace flag "
        "writes: summarize renders per-track span counts, busy time, and "
        "recorded metrics for either export format.",
    ).add_subparsers(dest="trace_command", required=True)
    p = _command(tsub, "summarize", _cmd_trace_summarize,
                 help="print a per-track summary table")
    p.add_argument("input", help="trace file (Chrome JSON or JSONL span log)")

    _command(sub, "datasets", _cmd_datasets, help="list the dataset catalogue (Table II)")
    _command(sub, "cpus", _cmd_cpus, help="list the CPU catalogue (Table I)")
    _command(sub, "codecs", _cmd_codecs, help="list registered compressors")
    return parser


def _cmd_compress(args) -> int:
    data = np.load(args.input)
    comp = get_compressor(args.codec)
    buf = comp.compress(data, args.rel_bound if not comp.lossless else 0.0)
    with open(args.output, "wb") as fh:
        fh.write(buf.data)
    print(
        f"{args.input}: {si(buf.original_nbytes, 'B')} -> {si(buf.nbytes, 'B')} "
        f"({buf.ratio:.2f}x, {buf.bitrate:.2f} bits/elem) via {buf.codec}"
    )
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    codec, shape, dtype, rel_bound, _, _, _ = Compressor._unpack_header(stream)
    recon = get_compressor(codec).decompress(stream)
    np.save(args.output, recon)
    print(
        f"{args.input}: {codec} stream -> {args.output} "
        f"{recon.shape} {recon.dtype} (rel_bound {rel_bound:.2e})"
    )
    return 0


def _cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    codec, shape, dtype, rel_bound, abs_bound, flag, payload = (
        Compressor._unpack_header(stream)
    )
    n_elems = int(np.prod(shape))
    original = n_elems * dtype.itemsize
    rows = [
        ["codec", codec],
        ["shape", "x".join(map(str, shape))],
        ["dtype", str(dtype)],
        ["rel bound", f"{rel_bound:.3e}"],
        ["abs bound (effective)", f"{abs_bound:.3e}"],
        ["stream bytes", si(len(stream), "B")],
        ["original bytes", si(original, "B")],
        ["ratio", f"{original / len(stream):.2f}x"],
        ["storage flag", {0: "normal", 1: "constant", 2: "lossless"}[flag]],
    ]
    print(format_table(["field", "value"], rows, title=args.input))
    return 0


# -- advisors: one search each, one command body ------------------------------


def _advise_plain(testbed, args):
    """The Section-III advisor: the Eq. 3-5 verdicts of the chosen plan."""
    from repro.core.advisor import Advisor
    from repro.core.tradeoff import TradeoffAnalyzer

    rec = Advisor(TradeoffAnalyzer(testbed, args.cpu, args.io)).recommend(
        args.dataset,
        psnr_min_db=args.psnr_min,
        objective=args.objective,
        require_time_benefit=args.strict_time,
        **_axis_values(args, "codecs", "bounds", "compression"),
    )
    if not rec.should_compress:
        return rec, False, None
    c = rec.record.conditions
    return rec, True, (
        f"  Eq.3 time: {c.time_beneficial}  Eq.4 energy: {c.energy_beneficial}  "
        f"Eq.5 quality: {c.quality_acceptable}"
    )


def _advise_dvfs(testbed, args):
    """``--dvfs``: the time/energy Pareto frontier over (frequency, codec,
    bound); the race/steady verdict is part of the rationale."""
    from repro.core.advisor import DvfsAdvisor

    advice = DvfsAdvisor(testbed, args.cpu, args.io).advise(
        args.dataset,
        psnr_min_db=args.psnr_min,
        objective=args.objective,
        require_time_benefit=args.strict_time,
        **_axis_values(args, "codecs", "bounds", "compression", "freqs"),
    )
    rows = [
        [
            f"{p.freq_ghz:.2f}",
            p.codec or "original",
            "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
            f"{p.total_time_s:.3f}",
            f"{p.total_energy_j:.1f}",
            f"{p.ratio:.2f}" if p.codec else "-",
        ]
        for p in advice.pareto
    ]
    return advice, advice.compress, format_table(
        ["f [GHz]", "codec", "REL", "t [s]", "E [J]", "ratio"],
        rows,
        title="time/energy Pareto frontier (fastest first)",
    )


def _advise_checkpoint(testbed, args):
    """``--checkpoint``: checkpointed lifetimes, cheapest expected energy first."""
    from repro.core.advisor import DalyAdvisor

    advice = DalyAdvisor(testbed, args.cpu, args.io).advise(
        args.dataset,
        mttf_s=args.mttf,
        psnr_min_db=args.psnr_min,
        **_axis_values(args, "codecs", "bounds", "compression", "n_nodes",
                       "work_s", "interval", "seed", "downtime_s"),
    )
    rows = [
        [
            p.codec or "original",
            "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
            f"{p.interval_s:.1f}",
            p.n_checkpoints,
            f"{p.expected_makespan_s:.0f}",
            f"{p.expected_energy_j:.0f}",
            f"{p.makespan_s:.0f}",
            f"{p.total_energy_j:.0f}",
            p.n_failures,
        ]
        for p in sorted(advice.candidates, key=lambda p: p.expected_energy_j)
    ]
    return advice, advice.compress, format_table(
        ["codec", "REL", "tau [s]", "ckpts", "E[T] [s]", "E[J]",
         "sim T [s]", "sim J", "fails"],
        rows,
        title="checkpointed lifetimes, cheapest expected energy first "
        f"(seed {args.seed})",
    )


def _advise_cluster(testbed, args):
    """`repro cluster advise`: every per-tenant compression mix, cheapest
    machine-wide first."""
    from repro.core.advisor import ClusterAdvisor

    advice = ClusterAdvisor(testbed, args.cpu, args.io).advise(
        args.dataset, args.scenario
    )
    rows = [
        [
            "+".join(codec or "none" for _, codec in mix),
            f"{res.makespan_s:.2f}",
            f"{res.max_stretch:.2f}",
            f"{res.total_energy_j:.1f}",
        ]
        for mix, res in advice.mixes
    ]
    return advice, advice.compress, format_table(
        ["mix", "makespan [s]", "stretch", "E [J]"],
        rows,
        title="per-tenant compression mixes, cheapest machine-wide first",
    )


_ADVISORS = {
    "plain": _advise_plain,
    "dvfs": _advise_dvfs,
    "checkpoint": _advise_checkpoint,
    "cluster": _advise_cluster,
}


def _cmd_advise(args, mode: str | None = None) -> int:
    """Run one advisor: print its rationale and table; exit 0 when the
    advice is to compress, 1 when it is not.

    `repro advise` picks the mode from ``--dvfs``/``--checkpoint``;
    `repro cluster advise` passes ``mode="cluster"``.
    """
    from repro.core.experiments import Testbed

    if mode is None:
        if args.dvfs and args.checkpoint:
            print("--dvfs and --checkpoint are separate advisors; pick one",
                  file=sys.stderr)
            return 2
        mode = "dvfs" if args.dvfs else "checkpoint" if args.checkpoint else "plain"
    advice, compress, table = _ADVISORS[mode](Testbed(scale=args.scale), args)
    print(advice.rationale)
    if table is not None:
        print(table)
    return 0 if compress else 1


# -- engine-backed commands: one run-and-render body --------------------------


def _failure_table(failures) -> str:
    """Render collected :class:`FailedPoint`s as a diagnostic table."""
    rows = [
        [
            f.op,
            ", ".join(f"{k}={v}" for k, v in f.params) or "-",
            f.reason,
            f.attempts,
            f.error_chain[0] if f.error_chain else "-",
        ]
        for f in failures
    ]
    return format_table(
        ["op", "params", "reason", "tries", "error"],
        rows,
        title=f"{len(failures)} failed grid points",
    )


def _run_spec(args, spec, *, executor="serial", workers=None, cache_dir=None,
              resume=False, retries=0, timeout=None, on_error="raise",
              progress=False) -> int:
    """Evaluate ``spec`` through the sweep engine and print the outcome.

    The keywords are `repro sweep`'s engine flags; their defaults are the
    serial, uncached run of `dataset tune` and `cluster run`.  Prints strict
    JSON ending in a ``__meta__`` stats element, or the kind's table, any
    failure table and a stats line.  Exits 1 on an empty grid or a failed
    point.
    """
    import json

    from repro.core.experiments import Testbed
    from repro.obs import ProgressPrinter, TracerBridge, compose
    from repro.runtime.engine import SweepEngine
    from repro.runtime.faults import FailedPoint, RetryPolicy
    from repro.runtime.store import ResultStore, point_key, testbed_fingerprint

    testbed = Testbed(scale=args.scale)
    store = ResultStore(cache_dir=cache_dir)
    if resume:
        # Progress is read from the store itself: ``in`` parses and
        # checksums each entry, so a corrupt one never counts as complete.
        fingerprint = testbed_fingerprint(testbed)
        keys = {point_key(p.op, p.as_kwargs(), fingerprint) for p in spec.points()}
        done = sum(key in store for key in keys)
        if done:
            print(f"resuming: {done}/{len(keys)} unique points already "
                  "complete", file=sys.stderr)
        else:
            print(f"no point of this sweep is in the cache yet; starting fresh "
                  f"({len(keys)} unique points)", file=sys.stderr)
    with _maybe_tracing(args.trace) as tracer:
        engine = SweepEngine(
            testbed=testbed,
            store=store,
            executor=executor,
            max_workers=workers,
            retry_policy=RetryPolicy(max_attempts=retries + 1, timeout_s=timeout),
            on_error=on_error,
            on_event=compose(
                TracerBridge(tracer) if tracer is not None else None,
                ProgressPrinter() if progress else None,
            ),
        )
        results = engine.run(spec)
    if not results:
        print("sweep expanded to zero grid points", file=sys.stderr)
        return 1
    failures = [r for r in results if isinstance(r, FailedPoint)]
    records = [r for r in results if not isinstance(r, FailedPoint)]
    if args.json:
        # Lossless round-trips carry psnr_db=inf; registry.to_wire keeps
        # the emitted JSON RFC-valid (json.dumps would print `Infinity`).
        # Failed positions stay in grid order as tagged __failed__ objects.
        # The trailing __meta__ element carries run statistics; record
        # consumers (and the schema checkers) skip it by its tag.
        wire_records = iter(registry.to_wire(records))
        wire = [
            r.to_wire() if isinstance(r, FailedPoint) else next(wire_records)
            for r in results
        ]
        wire.append({
            "__meta__": {
                "engine": engine.stats.snapshot(),
                "store": engine.store.stats,
                "executor": executor,
                "kind": spec.kind,
            }
        })
        print(json.dumps(wire, indent=2))
    else:
        if records:
            table = registry.get_kind(spec.kind).table
            print(table(records) if table is not None else
                  format_table(["record"], [[repr(r)] for r in records]))
        if failures:
            print(_failure_table(failures))
        stats = engine.store.stats
        print(
            f"\n{len(results)} points: {engine.stats.computed} computed, "
            f"{engine.stats.cache_hits} cached "
            f"(memory {stats['memory_hits']}, disk {stats['disk_hits']}), "
            f"{engine.stats.retries} retries, {len(failures)} failed "
            f"via {executor} executor"
        )
    return 1 if failures else 0


def _spec(args, kind: str):
    """The ``kind`` grid that the command's axis flags declare."""
    from repro.runtime.spec import SweepSpec

    # The spec rejects an unknown kind (naming the known ones) and runs the
    # kind's registered validation.
    return SweepSpec(kind=kind, **_axis_values(args))


def _cmd_sweep(args) -> int:
    if args.resume and not args.cache_dir:
        print("--resume needs --cache-dir: progress is read from the cache "
              "entries there", file=sys.stderr)
        return 2
    if args.spec:
        from repro.runtime.spec import SweepSpec

        with open(args.spec) as fh:
            spec = SweepSpec.from_json(fh.read())
    else:
        spec = _spec(args, args.kind)
    return _run_spec(
        args,
        spec,
        executor=args.executor,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=args.resume,
        retries=args.retries,
        timeout=args.timeout,
        on_error=args.on_error,
        progress=args.progress,
    )


def _cmd_dataset_tune(args) -> int:
    return _run_spec(args, _spec(args, "dataset"))


def _cmd_cluster_run(args) -> int:
    return _run_spec(args, _spec(args, "cluster"))


def _cmd_bench(args) -> int:
    import json as _json

    from repro.errors import BenchmarkRegression
    from repro.runtime.benchmark import run_and_report

    datasets = (
        tuple(d for d in args.datasets.split(",") if d) if args.datasets else None
    )
    try:
        with _maybe_tracing(args.trace):
            doc = run_and_report(
                args.output,
                datasets=datasets,
                quick=args.quick,
                repeats=args.repeats,
                max_regression_pct=args.max_regression,
            )
    except BenchmarkRegression as exc:
        print(f"BENCH REGRESSION: {exc}")
        for d in exc.offenders:
            print(
                f"  {d['kernel']}/{d['dataset']}: "
                f"{d['old_seconds_per_call']:.4f}s -> "
                f"{d['new_seconds_per_call']:.4f}s "
                f"({1 / d['speedup']:.2f}x slower)"
            )
        return 1
    if args.json:
        print(_json.dumps(doc, indent=2))
    return 0


def _tuning_table(tuning, title: str) -> str:
    rows = [
        [
            e.variable,
            e.requested,
            e.resolved,
            f"{e.ratio:.2f}",
            f"{e.max_rel_err:.2e}",
            "-" if e.floor is None else f"{e.floor:.0e}",
            e.candidates,
        ]
        for e in tuning
    ]
    return format_table(
        ["variable", "requested", "resolved", "ratio", "max rel err",
         "floor", "cands"],
        rows,
        title=title,
    )


def _cmd_dataset_write(args) -> int:
    from repro.core.experiments import Testbed
    from repro.dataset import AutoTuner, Dataset, write

    axes = _axis_values(args)
    ds = Dataset.from_catalog(axes["datasets"], scale=args.scale)
    tuner = AutoTuner(
        testbed=Testbed(scale=args.scale),
        codecs=axes["codecs"],
        bounds=axes["bounds"],
        io_library=args.io,
    )
    with _maybe_tracing(args.trace):
        report = write(
            ds,
            args.output,
            compression=args.compression,
            io_library=args.io,
            n_chunks=args.n_chunks,
            tuner=tuner,
        )
    print(_tuning_table(report.tuning, title=f"wrote {args.output}"))
    print(
        f"{si(report.original_nbytes, 'B')} -> {si(report.bytes_written, 'B')} "
        f"({report.ratio:.2f}x) via {report.io_library}, "
        f"spec {report.compression}"
    )
    return 0


def _cmd_dataset_read(args) -> int:
    import pathlib

    from repro.dataset import read

    ds = read(args.input)
    rows = [
        [
            v.name,
            "x".join(map(str, v.data.shape)),
            str(v.data.dtype),
            si(v.nbytes, "B"),
            ds.attrs.get(f"spec/{v.name}", "-"),
        ]
        for v in ds
    ]
    print(
        format_table(
            ["variable", "shape", "dtype", "size", "stored spec"],
            rows,
            title=f"{args.input} ({ds.attrs.get('io_library', '?')})",
        )
    )
    if args.out_dir:
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for v in ds:
            np.save(out / f"{v.name}.npy", v.data)
        print(f"dumped {len(ds)} arrays under {out}/")
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs import load_trace, summarize

    try:
        spans, metrics = load_trace(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.input}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"{args.input}: no spans recorded")
        return 0
    print(summarize(spans, metrics), end="")
    return 0


def _cmd_datasets(args) -> int:
    from repro.data.registry import DATASETS

    rows = [
        [
            s.name,
            s.domain,
            "x".join(map(str, s.paper_shape)),
            f"{s.paper_mb:.1f} MB",
            str(s.dtype),
        ]
        for s in DATASETS.values()
    ]
    print(format_table(["name", "domain", "paper shape", "size", "dtype"], rows))
    return 0


def _cmd_cpus(args) -> int:
    from repro.energy.cpus import CPUS

    rows = [
        [c.name, c.model, c.codename, c.cores, c.sockets, f"{c.tdp_w:.0f} W"]
        for c in CPUS.values()
    ]
    print(
        format_table(["name", "model", "codename", "cores", "sockets", "TDP"], rows)
    )
    return 0


def _cmd_codecs(args) -> int:
    rows = [
        [n, "lossless" if get_compressor(n).lossless else "error-bounded"]
        for n in available_compressors()
    ]
    print(format_table(["codec", "kind"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
