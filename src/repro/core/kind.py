"""The nine Testbed experiment kinds, declared for the registry.

Each kind is one :class:`~repro.runtime.registry.ExperimentKind`: the
profiling grids (``serial``, ``thread``: Figs. 5/7/10), the round-trip
tables (``quality``, ``lossless``: Table III, Fig. 1), the write and read
I/O grids (``io``, ``read``: Fig. 11), and the block-pipelined, DVFS and
checkpointed extensions (``pipeline``, ``dvfs``, ``checkpoint``).  Their
ops are :class:`~repro.core.experiments.Testbed` methods and their records
are the dataclasses of :mod:`repro.core.experiments`.

The registry imports this module, and so registers all nine, the first
time a lookup asks for one of them — as it imports
:mod:`repro.cluster.kind` and :mod:`repro.dataset.kind` for theirs.

The expansions are verbatim ports of the seed ``SweepSpec._points_*``
methods: they must emit identical ``(op, kwargs)`` pairs, because those
pairs are the content-addressed store identity of every evaluated point.
"""

from __future__ import annotations

import math

from repro.core.experiments import (
    CheckpointPoint,
    DvfsPoint,
    IOPoint,
    PipelinePoint,
    RoundtripRecord,
    SerialPoint,
)
from repro.errors import ConfigurationError
from repro.runtime import registry
from repro.runtime.registry import ExperimentKind

__all__ = ["CHUNK_META_ALLOWANCE_S", "TESTBED_KINDS"]


# -- grid expansions and spec checks ------------------------------------------


def _grid_point(op: str, **kwargs):
    from repro.runtime.spec import GridPoint

    return GridPoint.make(op, **kwargs)


def _expand_serial(spec) -> list:
    return [
        _grid_point(
            "serial_point",
            dataset=ds,
            codec=codec,
            rel_bound=eps,
            cpu_name=cpu,
            threads=spec.threads[0],
        )
        for cpu in spec.cpus
        for ds in spec.datasets
        for codec in spec.codecs
        for eps in spec.bounds
    ]


def _expand_thread(spec) -> list:
    from repro.compressors.capabilities import supported
    from repro.data.registry import get_dataset

    out = []
    for cpu in spec.cpus:
        for ds in spec.datasets:
            ndim = len(get_dataset(ds).paper_shape)
            for codec in spec.codecs:
                if spec.paper_fidelity and not supported(codec, ndim, "openmp"):
                    continue
                for th in spec.threads:
                    out.append(
                        _grid_point(
                            "serial_point",
                            dataset=ds,
                            codec=codec,
                            rel_bound=spec.rel_bound,
                            cpu_name=cpu,
                            threads=th,
                        )
                    )
    return out


def _validate_thread(spec) -> None:
    """Fail early — naming each capability reason — when ``paper_fidelity``
    would drop *every* (codec, dataset) combination from a thread sweep.

    Partial drops stay silent (the paper's own figures omit those series);
    an entirely empty grid is a configuration error, and the reasons come
    from :func:`repro.compressors.capabilities.unsupported_reason` instead
    of a bare zero-record sweep.
    """
    if not spec.paper_fidelity:
        return
    from repro.compressors.capabilities import supported, unsupported_reason
    from repro.data.registry import get_dataset

    reasons = []
    for ds in spec.datasets:
        ndim = len(get_dataset(ds).paper_shape)
        for codec in spec.codecs:
            if supported(codec, ndim, "openmp"):
                return  # at least one combination survives the filter
            reasons.append(
                f"{codec} on {ndim}-D {ds}: "
                f"{unsupported_reason(codec, ndim, 'openmp')}"
            )
    if reasons:
        raise ConfigurationError(
            "--paper-fidelity drops every (codec, dataset) combination from "
            "this thread sweep: " + "; ".join(reasons)
        )


def _expand_quality(spec) -> list:
    return [
        _grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=eps)
        for ds in spec.datasets
        for eps in spec.bounds
        for codec in spec.codecs
    ]


def _expand_lossless(spec) -> list:
    out = []
    for ds in spec.datasets:
        for codec in spec.lossless_codecs:
            out.append(_grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=0.0))
        for codec in spec.codecs:
            out.append(
                _grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=spec.rel_bound)
            )
    return out


def _expand_io(spec, op: str = "io_point") -> list:
    out = []
    for cpu in spec.cpus:
        for lib in spec.io_libraries:
            for ds in spec.datasets:
                if spec.include_baseline:
                    out.append(
                        _grid_point(
                            op,
                            dataset=ds,
                            codec=None,
                            rel_bound=None,
                            io_library=lib,
                            cpu_name=cpu,
                        )
                    )
                for codec in spec.codecs:
                    for eps in spec.bounds:
                        out.append(
                            _grid_point(
                                op,
                                dataset=ds,
                                codec=codec,
                                rel_bound=eps,
                                io_library=lib,
                                cpu_name=cpu,
                            )
                        )
    return out


def _expand_read(spec) -> list:
    return _expand_io(spec, op="read_point")


def _expand_pipeline(spec) -> list:
    # Same grid as `io`, evaluated through the block-pipelined model.
    return [
        _grid_point(
            "pipeline_point",
            n_chunks=spec.n_chunks,
            overlap=spec.overlap,
            **p.as_kwargs(),
        )
        for p in _expand_io(spec, op="pipeline_point")
    ]


def _expand_dvfs(spec) -> list:
    # Same grid as `io`, replicated along the frequency axis (innermost);
    # an empty freqs axis means each CPU's canonical DVFS ladder.
    from repro.energy.cpus import get_cpu

    out = []
    for p in _expand_io(spec, op="dvfs_point"):
        kwargs = p.as_kwargs()
        freqs = spec.freqs or get_cpu(kwargs["cpu_name"]).freq_ladder()
        for f in freqs:
            out.append(_grid_point("dvfs_point", freq_ghz=float(f), **kwargs))
    return out


def _validate_dvfs(spec) -> None:
    # An out-of-range clock must fail at construction, naming the CPU and
    # its DVFS range — not per grid point.
    from repro.energy.cpus import get_cpu

    for name in spec.cpus if spec.freqs else ():
        cpu = get_cpu(name)
        for f in spec.freqs:
            cpu.validate_freq(f)


def _expand_checkpoint(spec) -> list:
    # The `io` grid replicated along the per-node MTTF axis (innermost).
    # The pipeline (n_chunks/overlap) and scenario fields ride along on
    # every point; the default n_chunks=1 prices checkpoints through the
    # sequential write path, n_chunks>1 through the pipelined one.
    out = []
    for p in _expand_io(spec, op="checkpoint_point"):
        for mttf in spec.mttfs:
            out.append(
                _grid_point(
                    "checkpoint_point",
                    mttf_s=float(mttf),
                    work_s=spec.work_s,
                    interval=spec.interval,
                    n_nodes=spec.n_nodes,
                    seed=spec.seed,
                    downtime_s=spec.downtime_s,
                    n_chunks=spec.n_chunks,
                    overlap=spec.overlap,
                    **p.as_kwargs(),
                )
            )
    return out


def _validate_checkpoint(spec) -> None:
    # Validate the whole scenario eagerly: a bad spec must fail at
    # construction (spec-file parse time), not per grid point inside a
    # worker pool.
    if not spec.mttfs:
        raise ConfigurationError("mttfs axis must not be empty")
    if any(not m > 0 for m in spec.mttfs):  # NaN too; inf is failure-free
        raise ConfigurationError("every mttf must be positive")
    if isinstance(spec.interval, str):
        if spec.interval not in ("daly", "young"):
            raise ConfigurationError(
                f"unknown interval policy {spec.interval!r}; expected "
                "'daly', 'young', or a number of seconds"
            )
    elif not spec.interval > 0:
        raise ConfigurationError("explicit interval must be positive")
    for name in ("work_s", "downtime_s"):
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if not spec.work_s > 0:
        raise ConfigurationError("work_s must be positive")
    if spec.downtime_s < 0:
        raise ConfigurationError("downtime_s must be >= 0")
    if spec.n_nodes < 1:
        raise ConfigurationError("n_nodes must be >= 1")


# -- table renderers ----------------------------------------------------------


def _table_serial(records) -> str:
    from repro.core.report import format_table

    headers = ["dataset", "codec", "REL", "cpu", "thr", "t_comp [s]",
               "t_dec [s]", "E_comp [J]", "E_dec [J]", "ratio", "PSNR [dB]"]
    rows = [
        [p.dataset, p.codec, f"{p.rel_bound:.0e}", p.cpu, p.threads,
         f"{p.compress_time_s:.3f}", f"{p.decompress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.decompress_energy_j:.1f}",
         f"{p.roundtrip.ratio:.2f}", f"{p.roundtrip.psnr_db:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_quality(records) -> str:
    from repro.core.report import format_table

    headers = ["dataset", "codec", "REL", "ratio", "PSNR [dB]", "max rel err"]
    rows = [
        [r.dataset, r.codec, f"{r.rel_bound:.0e}", f"{r.ratio:.2f}",
         f"{r.psnr_db:.1f}" if r.psnr_db != float("inf") else "inf",
         f"{r.max_rel_err:.2e}"]
        for r in records
    ]
    return format_table(headers, rows)


def _table_io(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "payload", "t_io [s]",
               "E_io [J]", "t_codec [s]", "E_codec [J]", "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         si(p.bytes_written, "B"), f"{p.write_time_s:.3f}",
         f"{p.write_energy_j:.1f}", f"{p.compress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_pipeline(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "chunks", "ovl", "payload",
               "t_comp [s]", "t_write [s]", "t_total [s]", "saved [s]",
               "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         p.n_chunks, "on" if p.overlap else "off", si(p.bytes_written, "B"),
         f"{p.compress_time_s:.3f}", f"{p.write_time_s:.3f}",
         f"{p.total_time_s:.3f}", f"{p.overlap_saving_s:.3f}",
         f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_dvfs(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "f [GHz]", "payload",
               "t_comp [s]", "t_io [s]", "E_comp [J]", "E_io [J]",
               "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         f"{p.freq_ghz:.2f}", si(p.bytes_written, "B"),
         f"{p.compress_time_s:.3f}", f"{p.write_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.write_energy_j:.1f}",
         f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_checkpoint(records) -> str:
    from repro.core.report import format_table

    headers = ["io", "dataset", "codec", "REL", "MTTF [s]", "tau [s]",
               "ckpts", "fails", "T [s]", "E [J]", "E[T] [s]", "E[J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         "inf" if p.mttf_s == float("inf") else f"{p.mttf_s:.0f}",
         "inf" if p.interval_s == float("inf") else f"{p.interval_s:.1f}",
         p.n_checkpoints, p.n_failures,
         f"{p.makespan_s:.1f}", f"{p.total_energy_j:.1f}",
         f"{p.expected_makespan_s:.1f}", f"{p.expected_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


# -- record invariants (the old tools/check_*_schema.py bodies) ---------------


def _invariants_roundtrip(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        if rec["compressed_nbytes"] < 1 or rec["original_nbytes"] < 1:
            errors.append(f"{where}: byte counts must be >= 1")
        if rec["max_rel_err"] < 0:
            errors.append(f"{where}: negative max_rel_err")
    return errors


def _invariants_serial(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["threads"] < 1:
            errors.append(f"{where}: threads must be >= 1")
        if min(rec["compress_time_s"], rec["decompress_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["compress_energy_j"], rec["decompress_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
    return errors


_CODEC_COST = ("compress_time_s", "compress_energy_j")


def _baseline_errors(rec, where: str, cost=(), ratio: bool = False) -> list:
    """The write-path kinds' codec checks: ``codec`` and ``rel_bound`` are
    null together, and the uncompressed baseline carries none of the
    ``cost`` fields and (with ``ratio``) a ratio of exactly 1."""
    errors = []
    if (rec["codec"] is None) != (rec["rel_bound"] is None):
        errors.append(f"{where}: codec/rel_bound nullability mismatch")
    if rec["codec"] is None:
        if any(rec[name] != 0 for name in cost):
            errors.append(f"{where}: uncompressed baseline carries codec cost")
        if ratio and rec["ratio"] != 1.0:
            errors.append(f"{where}: uncompressed baseline ratio != 1.0")
    return errors


def _invariants_io(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if min(rec["write_time_s"], rec["compress_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["write_energy_j"], rec["compress_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
        errors += _baseline_errors(rec, where, _CODEC_COST)
    return errors


#: Per-chunk slack for the pipeline makespan invariant.  Overlap can only
#: *hide* stage time, but each additional chunk honestly pays its library's
#: chunk_meta_latency_s (<= 3 ms for NetCDF classic), which the sequential
#: stage sum does not include — so a degenerate config (tiny payload, many
#: chunks) may legitimately end slightly above the stage sum.  10 ms/chunk
#: comfortably covers every shipped cost model while still catching real
#: model drift.
CHUNK_META_ALLOWANCE_S = 0.01


def _invariants_pipeline(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if rec["n_chunks"] < 1:
            errors.append(f"{where}: n_chunks must be >= 1")
        if min(rec["compress_time_s"], rec["write_time_s"], rec["total_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["compress_energy_j"], rec["write_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
        stage_sum = rec["compress_time_s"] + rec["write_time_s"]
        allowance = CHUNK_META_ALLOWANCE_S * rec["n_chunks"]
        if rec["total_time_s"] > stage_sum + allowance + 1e-9:
            errors.append(
                f"{where}: overlapped total {rec['total_time_s']} exceeds "
                f"stage sum {stage_sum} + chunk-metadata allowance {allowance}"
            )
        if not rec["overlap"] and abs(rec["total_time_s"] - stage_sum) > 1e-9:
            errors.append(f"{where}: overlap-off control does not sum exactly")
        errors += _baseline_errors(rec, where)
    return errors


def _invariants_dvfs(records) -> list:
    errors = []
    # Compression time must be non-increasing in frequency per configuration.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["freq_ghz"] <= 0:
            errors.append(f"{where}: freq_ghz must be positive")
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if min(rec["compress_time_s"], rec["write_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if rec["compress_energy_j"] < 0 or rec["write_energy_j"] <= 0:
            errors.append(f"{where}: energy must be positive (idle power alone is)")
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        errors += _baseline_errors(rec, where, _CODEC_COST, ratio=True)
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
        )
        by_config.setdefault(key, []).append(
            (float(rec["freq_ghz"]), float(rec["compress_time_s"]))
        )
    for key, points in by_config.items():
        points.sort()
        for (f_lo, t_lo), (f_hi, t_hi) in zip(points, points[1:]):
            if t_hi > t_lo + 1e-9:
                errors.append(
                    f"config {key}: compress time rose with frequency "
                    f"({t_lo}s @ {f_lo} GHz -> {t_hi}s @ {f_hi} GHz)"
                )
    return errors


def _num(value) -> float:
    """A schema-validated number that may be a non-finite repr string."""
    return float(value) if isinstance(value, str) else value


def _invariants_checkpoint(records) -> list:
    errors = []
    # Per configuration: the resolved interval must not grow as MTTF drops.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        mttf = _num(rec["mttf_s"])
        interval_s = _num(rec["interval_s"])
        if rec["n_checkpoints"] < 1:
            errors.append(f"{where}: at least one checkpoint must commit")
        if rec["makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: makespan undercuts the useful work")
        if rec["expected_makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: expected makespan undercuts the work")
        if rec["rework_s"] < -1e-9 or rec["n_failures"] < 0:
            errors.append(f"{where}: negative rework or failure count")
        for name in (
            "compute_energy_j",
            "checkpoint_energy_j",
            "restart_energy_j",
            "idle_energy_j",
            "expected_energy_j",
        ):
            if rec[name] < 0:
                errors.append(f"{where}.{name}: negative energy")
        errors += _baseline_errors(
            rec, where, ("ckpt_compress_time_s", "ckpt_compress_energy_j"),
            ratio=True,
        )
        if math.isinf(mttf):
            if rec["n_failures"] != 0 or rec["rework_s"] != 0:
                errors.append(f"{where}: failure-free lifetime shows failures")
            ff = rec["work_s"] + rec["n_checkpoints"] * rec["ckpt_time_s"]
            if abs(rec["makespan_s"] - ff) > 1e-6 * max(1.0, ff):
                errors.append(
                    f"{where}: failure-free makespan {rec['makespan_s']} != "
                    f"work + checkpoints {ff}"
                )
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
            rec["interval"] if isinstance(rec["interval"], str) else None,
        )
        if isinstance(rec["interval"], str):  # daly/young adapt to the MTTF
            by_config.setdefault(key, []).append((mttf, interval_s))
    for key, points in by_config.items():
        points.sort()
        for (m_lo, tau_lo), (m_hi, tau_hi) in zip(points, points[1:]):
            if tau_lo > tau_hi + 1e-9:
                errors.append(
                    f"config {key}: optimal interval grew as MTTF dropped "
                    f"({tau_lo}s @ MTTF {m_lo}s vs {tau_hi}s @ MTTF {m_hi}s)"
                )
    return errors


# -- the declarations ---------------------------------------------------------

_IO_FIELDS = ("datasets", "codecs", "bounds", "cpus", "io_libraries",
              "include_baseline", "compression")

#: Tiny per-kind grids for the conformance battery: fast at scale="tiny",
#: yet covering the uncompressed baseline, a codec point, and (for the
#: checkpoint kind) an ±inf MTTF parameter.
_CONFORMANCE_IO = dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                       io_libraries=("hdf5",), cpus=("max9480",))

TESTBED_KINDS = (
    ExperimentKind(
        name="serial",
        help="per-(dataset, codec, bound) (de)compression profiling (Figs. 5/7)",
        record=SerialPoint,
        expand=_expand_serial,
        ops=("serial_point",),
        spec_fields=("datasets", "codecs", "bounds", "cpus", "threads",
                     "compression"),
        table=_table_serial,
        invariants=_invariants_serial,
        conformance=dict(datasets=("cesm",), codecs=("szx",),
                         bounds=(1e-3, 1e-4), cpus=("max9480",), threads=(1,)),
    ),
    ExperimentKind(
        name="thread",
        help="OpenMP strong scaling along the thread axis (Fig. 10)",
        record=SerialPoint,
        expand=_expand_thread,
        ops=("serial_point",),
        spec_fields=("datasets", "codecs", "threads", "rel_bound", "cpus",
                     "paper_fidelity", "compression"),
        validate=_validate_thread,
        table=_table_serial,
        invariants=_invariants_serial,
        conformance=dict(datasets=("cesm",), codecs=("szx",), threads=(1, 2),
                         rel_bound=1e-3, cpus=("max9480",)),
    ),
    ExperimentKind(
        name="quality",
        help="compression-ratio / PSNR quality grid (Table III)",
        record=RoundtripRecord,
        expand=_expand_quality,
        ops=("roundtrip",),
        spec_fields=("datasets", "codecs", "bounds", "compression"),
        table=_table_quality,
        invariants=_invariants_roundtrip,
        conformance=dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,)),
    ),
    ExperimentKind(
        name="lossless",
        help="lossless vs error-bounded compression ratios (Fig. 1)",
        record=RoundtripRecord,
        expand=_expand_lossless,
        ops=("roundtrip",),
        spec_fields=("datasets", "codecs", "lossless_codecs", "rel_bound",
                     "compression"),
        table=_table_quality,
        invariants=_invariants_roundtrip,
        conformance=dict(datasets=("cesm",), codecs=("sz2",),
                         lossless_codecs=("zstd",), rel_bound=1e-2),
    ),
    ExperimentKind(
        name="io",
        help="compress-then-write energy vs the uncompressed baseline (Fig. 11)",
        record=IOPoint,
        expand=_expand_io,
        ops=("io_point",),
        spec_fields=_IO_FIELDS,
        table=_table_io,
        invariants=_invariants_io,
        conformance=dict(_CONFORMANCE_IO),
    ),
    ExperimentKind(
        name="read",
        help="read-path mirror of the io grid: fetch + decompress",
        record=IOPoint,
        expand=_expand_read,
        ops=("read_point",),
        spec_fields=_IO_FIELDS,
        table=_table_io,
        invariants=_invariants_io,
        conformance=dict(_CONFORMANCE_IO),
    ),
    ExperimentKind(
        name="pipeline",
        help="block-pipelined chunked compress-and-write with stage overlap",
        record=PipelinePoint,
        expand=_expand_pipeline,
        ops=("pipeline_point",),
        spec_fields=(*_IO_FIELDS, "n_chunks", "overlap"),
        table=_table_pipeline,
        invariants=_invariants_pipeline,
        conformance=dict(_CONFORMANCE_IO, n_chunks=4, overlap=True),
    ),
    ExperimentKind(
        name="dvfs",
        help="the compress-and-write grid swept along the DVFS frequency axis",
        record=DvfsPoint,
        expand=_expand_dvfs,
        ops=("dvfs_point",),
        spec_fields=(*_IO_FIELDS, "freqs"),
        validate=_validate_dvfs,
        table=_table_dvfs,
        invariants=_invariants_dvfs,
        conformance=dict(_CONFORMANCE_IO, freqs=(0.8, 1.9)),
    ),
    ExperimentKind(
        name="checkpoint",
        help="failure-aware checkpointed application lifetimes (Daly/Young)",
        record=CheckpointPoint,
        expand=_expand_checkpoint,
        ops=("checkpoint_point",),
        spec_fields=(*_IO_FIELDS, "mttfs", "work_s", "interval", "n_nodes",
                     "seed", "downtime_s", "n_chunks", "overlap"),
        validate=_validate_checkpoint,
        table=_table_checkpoint,
        invariants=_invariants_checkpoint,
        conformance=dict(_CONFORMANCE_IO, mttfs=(float("inf"), 14400.0),
                         work_s=900.0, n_nodes=4, seed=0, downtime_s=60.0,
                         interval="daly", n_chunks=1, overlap=False),
    ),
)

for _kind in TESTBED_KINDS:
    registry.register(_kind)
del _kind
