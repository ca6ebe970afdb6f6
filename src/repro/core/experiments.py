"""The virtual testbed and one experiment driver per paper figure/table.

:class:`Testbed` combines the four substrates:

1. **real compression** of the synthetic datasets (ratios, PSNR, bytes);
2. the **throughput model** for runtimes at paper scale on a Table-I CPU;
3. the **RAPL/PAPI energy stack** for joules;
4. the **I/O + cluster models** for write and multi-node experiments.

Every driver returns plain dataclass records that the benchmark harness
renders into the paper's rows/series.  Compression round-trips are memoized
per (dataset, scale, codec, bound) — Figures 5/7/8/9 and Table III all share
one sweep.  Every modeled write and read point (``io_point``, ``read_point``,
``pipeline_point``, ``dvfs_point``, ``checkpoint_point``) is priced by one
cost function: a codec leg plus an I/O leg (paper Eqs. 3-5).  Grids run
through ``run_sweep(kind, **axes)``, which delegates to the
:mod:`repro.runtime` sweep engine, so whole evaluated points — not just
round-trips — are memoized in the process-wide result store and can be
fanned out over thread/process pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.compressors import get_compressor
from repro.data.registry import generate, get_dataset
from repro.energy.cpus import CPUSpec, get_cpu
from repro.energy.measurement import EnergyMeter, Phase, compression_energy
from repro.energy.papi import check_sample_interval
from repro.energy.throughput import ThroughputModel
from repro.errors import ConfigurationError
from repro.iolib.base import IOLibrary, get_io_library
from repro.iolib import hdf5_like, netcdf_like  # noqa: F401  (the containers register on import)
from repro.iolib.pfs import PFSModel
from repro.metrics.error import check_error_bound, max_rel_error
from repro.metrics.quality import autocorrelation, psnr

if TYPE_CHECKING:
    from repro.cluster.campaign import CampaignResult, MultiNodeCampaign

__all__ = [
    "RoundtripRecord",
    "SerialPoint",
    "IOPoint",
    "PipelinePoint",
    "DvfsPoint",
    "CheckpointPoint",
    "InflationPoint",
    "Testbed",
]


@dataclass(frozen=True)
class RoundtripRecord:
    """Real compression outcome on the synthetic data."""

    dataset: str
    scale: str
    codec: str
    rel_bound: float
    ratio: float
    psnr_db: float
    autocorr: float
    max_rel_err: float
    compressed_nbytes: int
    original_nbytes: int


@dataclass(frozen=True)
class SerialPoint:
    """One (dataset, codec, ε, CPU, threads) profiling measurement."""

    dataset: str
    codec: str
    rel_bound: float
    cpu: str
    threads: int
    compress_time_s: float
    decompress_time_s: float
    compress_energy_j: float
    decompress_energy_j: float
    roundtrip: RoundtripRecord

    @property
    def total_time_s(self) -> float:
        return self.compress_time_s + self.decompress_time_s

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.decompress_energy_j


@dataclass(frozen=True)
class IOPoint:
    """One write experiment: (dataset, codec-or-original, I/O library)."""

    dataset: str
    codec: str | None  # None = uncompressed baseline
    rel_bound: float | None
    io_library: str
    cpu: str
    bytes_written: int
    write_time_s: float
    write_energy_j: float
    compress_time_s: float
    compress_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.write_energy_j + self.compress_energy_j

    # -- read-path accessors --------------------------------------------------
    # ``read_point`` reuses this record with write-named fields carrying the
    # read-path costs.  These aliases give the read path proper names without
    # touching the stored fields, so store keys and old callers are unchanged.

    @property
    def fetch_time_s(self) -> float:
        """Read path: seconds to pull the bytes off the PFS."""
        return self.write_time_s

    @property
    def fetch_energy_j(self) -> float:
        """Read path: joules of the PFS fetch."""
        return self.write_energy_j

    @property
    def decompress_time_s(self) -> float:
        """Read path: codec seconds before analysis can start."""
        return self.compress_time_s

    @property
    def decompress_energy_j(self) -> float:
        """Read path: codec joules before analysis can start."""
        return self.compress_energy_j


@dataclass(frozen=True)
class PipelinePoint:
    """One block-pipelined write experiment (chunked, optionally overlapped).

    ``compress_time_s`` / ``write_time_s`` are the *stage* times — what each
    stage costs run back to back; ``total_time_s`` is the overlapped
    makespan.  With ``overlap=False`` the point is computed through exactly
    the sequential :meth:`Testbed.io_point` code path, so the two stages sum
    to the total and every number matches the monolithic model bit for bit.
    """

    dataset: str
    codec: str | None  # None = uncompressed baseline
    rel_bound: float | None
    io_library: str
    cpu: str
    n_chunks: int
    overlap: bool
    bytes_written: int
    compress_time_s: float
    write_time_s: float
    total_time_s: float
    compress_energy_j: float
    write_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j

    @property
    def overlap_saving_s(self) -> float:
        """Seconds saved by overlapping the stages (0 when overlap is off)."""
        return self.compress_time_s + self.write_time_s - self.total_time_s


@dataclass(frozen=True)
class DvfsPoint:
    """One compress-and-write evaluation at an explicit core frequency.

    The same scenario as :class:`IOPoint`, with the node pinned at
    ``freq_ghz``: codec compute time scales on its compute-bound fraction
    (roofline), dynamic power scales as ``(f/fnom)^gamma``, and the PFS
    transfer itself is frequency-insensitive.  At ``f == fnom`` every field
    matches :meth:`Testbed.io_point` bit for bit.  ``ratio``/``psnr_db``
    carry the real round-trip quality (1.0 / +inf for the uncompressed
    baseline) so the advisor can filter on a quality floor without a second
    lookup.
    """

    dataset: str
    codec: str | None  # None = uncompressed baseline
    rel_bound: float | None
    io_library: str
    cpu: str
    freq_ghz: float
    bytes_written: int
    compress_time_s: float
    write_time_s: float
    compress_energy_j: float
    write_energy_j: float
    ratio: float
    psnr_db: float

    @property
    def total_time_s(self) -> float:
        return self.compress_time_s + self.write_time_s

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j


@dataclass(frozen=True)
class CheckpointPoint:
    """One failure-aware checkpointed application lifetime.

    The per-checkpoint write cost fields (``ckpt_*``) are taken verbatim
    from the existing write paths — :meth:`Testbed.io_point`,
    :meth:`Testbed.pipeline_point`, or :meth:`Testbed.dvfs_point` depending
    on ``n_chunks``/``freq_ghz`` — and the restart cost from
    :meth:`Testbed.read_point`, so a failure-free single-checkpoint run
    reproduces those records bit for bit.  The lifetime itself is simulated
    deterministically (:mod:`repro.workloads.lifecycle`) with
    the explicit ``seed``; ``expected_*`` carry the closed-form Daly model
    for the same configuration.

    ``mttf_s`` is the *per-node* MTTF; the simulated system fails at
    ``mttf_s / n_nodes`` (``inf`` = failure-free).
    """

    dataset: str
    codec: str | None  # None = uncompressed checkpoints
    rel_bound: float | None
    io_library: str
    cpu: str
    mttf_s: float
    n_nodes: int
    work_s: float
    interval: str | float  # policy as requested ("daly", "young", or seconds)
    interval_s: float  # resolved checkpoint interval
    seed: int
    n_chunks: int
    overlap: bool
    freq_ghz: float | None
    downtime_s: float
    # per-checkpoint write cost (bit-identical to the underlying write path)
    ckpt_compress_time_s: float
    ckpt_write_time_s: float
    ckpt_time_s: float  # wall time of one checkpoint (overlapped if pipelined)
    ckpt_compress_energy_j: float
    ckpt_write_energy_j: float
    # restart cost (bit-identical to the read path)
    restart_fetch_time_s: float
    restart_decompress_time_s: float
    restart_fetch_energy_j: float
    restart_decompress_energy_j: float
    # the simulated lifetime
    makespan_s: float
    n_checkpoints: int
    n_failures: int
    rework_s: float
    compute_energy_j: float
    checkpoint_energy_j: float
    restart_energy_j: float
    idle_energy_j: float
    # closed-form Daly expectations for the same configuration
    expected_makespan_s: float
    expected_energy_j: float
    # round-trip quality, for advisor filtering (1.0 / +inf for baseline)
    ratio: float
    psnr_db: float

    @property
    def restart_time_s(self) -> float:
        return self.restart_fetch_time_s + self.restart_decompress_time_s

    @property
    def total_energy_j(self) -> float:
        """Simulated lifetime energy: compute + checkpoints + restarts + idle."""
        return (
            self.compute_energy_j
            + self.checkpoint_energy_j
            + self.restart_energy_j
            + self.idle_energy_j
        )

    @property
    def overhead_fraction(self) -> float:
        """Share of the makespan not spent on useful work."""
        return 1.0 - self.work_s / self.makespan_s if self.makespan_s > 0 else 0.0


@dataclass(frozen=True)
class InflationPoint:
    """One Fig. 13 point: inflated NYX at paper scale."""

    codec: str
    factor: int
    paper_gb: float
    ratio: float
    compress_energy_j: float
    decompress_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.decompress_energy_j


class _Cost(NamedTuple):
    """One modeled write or read: the codec leg and the I/O leg."""

    nbytes: int  # bytes that cross the PFS
    codec_time_s: float  # compress (write) or decompress (read)
    codec_energy_j: float
    io_time_s: float  # serialize + transfer (write) or transfer + deserialize (read)
    io_energy_j: float
    ratio: float  # round-trip quality; 1.0 / +inf for the baseline
    psnr_db: float


# Shared across Testbed instances so every bench in a session reuses sweeps.
_ROUNDTRIP_CACHE: dict[tuple, RoundtripRecord] = {}

#: The ops that price a (dataset, codec, rel_bound) point through
#: :meth:`Testbed.roundtrip`; ``codec=None`` is the uncompressed baseline.
_ROUNDTRIP_OPS = frozenset({
    "roundtrip", "serial_point", "io_point", "read_point", "pipeline_point",
    "dvfs_point", "checkpoint_point",
})


class Testbed:
    """The full virtual testbed; see module docstring."""

    __test__ = False  # name starts with "Test" but this is not a test class

    def __init__(
        self,
        scale: str = "bench",
        pfs: PFSModel | None = None,
        throughput: ThroughputModel | None = None,
        sample_interval: float = 0.010,
    ):
        check_sample_interval(sample_interval)
        self.scale = scale
        self.pfs = pfs or PFSModel()
        self.throughput = throughput or ThroughputModel()
        self.sample_interval = sample_interval
        self._engine = None

    @property
    def engine(self):
        """The sweep engine every grid driver runs through.

        Built lazily against the process-wide default result store, so all
        testbeds with equal configuration share evaluated points.  Assign a
        custom :class:`~repro.runtime.engine.SweepEngine` to change the
        executor, store, or progress callbacks.
        """
        if self._engine is None:
            from repro.runtime.engine import SweepEngine

            self._engine = SweepEngine(testbed=self)
        return self._engine

    @engine.setter
    def engine(self, value):
        self._engine = value

    # -- real compression (memoized) -----------------------------------------

    def roundtrip(self, dataset: str, codec: str, rel_bound: float) -> RoundtripRecord:
        """Compress + decompress the synthetic dataset for real."""
        (rec,) = self.roundtrips(dataset, codec, (rel_bound,))
        return rec

    def roundtrips(
        self, dataset: str, codec: str, rel_bounds
    ) -> list[RoundtripRecord]:
        """:meth:`roundtrip` at each of ``rel_bounds``, in order.

        The field is generated once and the memo misses are coded in one
        ``compress_many`` and one ``decompress_many`` pass, so the codec's
        fixed per-call cost is paid once per (dataset, codec), not per
        bound.  Each record is checked and built as a lone round-trip's.
        If the batch fails, each missing bound is retried alone, in order,
        so the error raised is the one the first failing bound raises alone.
        """
        keys = [(dataset, self.scale, codec, float(b)) for b in rel_bounds]
        missing: dict = {}
        for key, bound in zip(keys, rel_bounds):
            if key not in _ROUNDTRIP_CACHE:
                missing.setdefault(key, bound)
        if len(missing) > 1:
            try:
                self._code_roundtrips(dataset, codec, missing)
            except Exception:
                pass  # retried below outside this handler: no chained context
        for key, bound in missing.items():
            if key not in _ROUNDTRIP_CACHE:
                self._code_roundtrips(dataset, codec, {key: bound})
        return [_ROUNDTRIP_CACHE[k] for k in keys]

    def _code_roundtrips(self, dataset: str, codec: str, missing: dict) -> None:
        """Round-trip the field at every bound of ``missing`` (memo key ->
        requested bound) in one batched codec pass; memoize the records."""
        data = np.array(generate(dataset, self.scale))
        comp = get_compressor(codec)
        bounds = list(missing.values())
        bufs = comp.compress_many(
            [data] * len(bounds), [0.0 if comp.lossless else b for b in bounds]
        )
        recons = comp.decompress_many(bufs)
        for key, rel_bound, buf, recon in zip(missing, bounds, bufs, recons):
            if comp.lossless:
                if not np.array_equal(recon, data):
                    raise ConfigurationError(f"lossless codec {codec} failed roundtrip")
            else:
                check_error_bound(data, recon, rel_bound)
            _ROUNDTRIP_CACHE[key] = RoundtripRecord(
                dataset=dataset,
                scale=self.scale,
                codec=codec,
                rel_bound=0.0 if comp.lossless else rel_bound,
                ratio=buf.ratio,
                psnr_db=psnr(data, recon),
                autocorr=autocorrelation(data, recon),
                max_rel_err=max_rel_error(data, recon),
                compressed_nbytes=buf.nbytes,
                original_nbytes=data.nbytes,
            )

    def roundtrip_batches(self, points) -> list[tuple[str, str, list]]:
        """The round-trips that evaluating ``points`` would code, batched.

        ``points`` are ``(op, kwargs)`` pairs.  Every op this testbed prices
        through a real round-trip contributes its (dataset, codec, bound);
        the memo misses are grouped per (dataset, codec), and each group of
        two or more bounds comes back as ``(dataset, codec, bounds)`` for
        :meth:`roundtrips`.  A batch spans one (dataset, codec) only, so it
        holds one field's reconstructions at a time.
        """
        groups: dict[tuple[str, str], dict] = {}
        for op, kwargs in points:
            dataset, codec = kwargs.get("dataset"), kwargs.get("codec")
            rel_bound = kwargs.get("rel_bound")
            if (
                op not in _ROUNDTRIP_OPS
                or not isinstance(dataset, str)
                or not isinstance(codec, str)
                or not isinstance(rel_bound, (int, float))
            ):
                continue
            key = (dataset, self.scale, codec, float(rel_bound))
            if key not in _ROUNDTRIP_CACHE:
                groups.setdefault((dataset, codec), {}).setdefault(key, rel_bound)
        return [
            (dataset, codec, list(bounds.values()))
            for (dataset, codec), bounds in groups.items()
            if len(bounds) > 1
        ]

    # -- energy primitives ----------------------------------------------------

    def _meter(self, cpu: CPUSpec, freq_ghz: float | None = None) -> EnergyMeter:
        return EnergyMeter(
            cpu, sample_interval=self.sample_interval, freq_ghz=freq_ghz
        )

    def serial_point(
        self,
        dataset: str,
        codec: str,
        rel_bound: float,
        cpu_name: str = "max9480",
        threads: int = 1,
    ) -> SerialPoint:
        """Profile one (de)compression at paper scale on a Table-I CPU."""
        spec = get_dataset(dataset)
        cpu = get_cpu(cpu_name)
        rt = self.roundtrip(dataset, codec, rel_bound)
        meter = self._meter(cpu)
        nbytes = spec.profile_nbytes
        times = {}
        energies = {}
        for direction in ("compress", "decompress"):
            t = self.throughput.runtime(
                codec,
                direction,
                nbytes,
                rel_bound,
                cpu,
                threads=threads,
                complexity=spec.complexity,
            )
            times[direction] = t
            energies[direction] = meter.measure_compute(t, threads).energy_j
        return SerialPoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            cpu=cpu_name,
            threads=threads,
            compress_time_s=times["compress"],
            decompress_time_s=times["decompress"],
            compress_energy_j=energies["compress"],
            decompress_energy_j=energies["decompress"],
            roundtrip=rt,
        )

    def write_report(
        self,
        nbytes: int,
        io_library: IOLibrary,
        cpu: CPUSpec,
        freq_ghz: float | None = None,
    ) -> tuple[float, float]:
        """(seconds, joules) to write ``nbytes`` through an I/O library.

        ``freq_ghz`` pins the node's DVFS point for the *power* integration;
        serialize and transfer durations are memory/network-bound and do not
        move with the core clock.
        """
        cost = io_library.cost
        t_ser = cost.serialize_seconds(nbytes, cpu.speed)
        t_io = self.pfs.single_write_seconds(nbytes, cost.bandwidth_efficiency)
        t_io += cost.open_latency_s
        report = self._meter(cpu, freq_ghz).measure(
            [
                Phase(t_ser, 1, 1.0, "serialize"),
                Phase(t_io, 1, cost.transfer_activity, "transfer"),
            ]
        )
        return report.runtime_s, report.energy_j

    def read_report(
        self,
        nbytes: int,
        io_library: IOLibrary,
        cpu: CPUSpec,
        freq_ghz: float | None = None,
    ) -> tuple[float, float]:
        """(seconds, joules) to read ``nbytes`` back through an I/O library.

        The paper's Section VI-A remark — "pulling compressed data out of
        storage for analysis will have the same benefits" — made concrete:
        a read is a transfer plus a deserialize pass.  ``freq_ghz`` pins the
        DVFS point for the power integration, like :meth:`write_report`;
        the transfer and deserialize durations are memory/network-bound and
        do not move with the core clock.
        """
        cost = io_library.cost
        t_io = self.pfs.single_read_seconds(nbytes, cost.bandwidth_efficiency)
        t_io += cost.open_latency_s
        t_deser = cost.serialize_seconds(nbytes, cpu.speed)
        meter = self._meter(cpu, freq_ghz)
        report = meter.measure(
            [
                Phase(t_io, 1, cost.transfer_activity, "transfer"),
                Phase(t_deser, 1, 1.0, "deserialize"),
            ]
        )
        return report.runtime_s, report.energy_j

    def _cost(
        self,
        direction: str,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        io_library: str,
        cpu_name: str,
        freq_ghz: float | None = None,
    ) -> _Cost:
        """The one modeled cost of a write or a read (paper Eqs. 3-5).

        ``direction="write"`` prices compress, then serialize + transfer;
        ``"read"`` prices transfer + deserialize, then decompress.  The
        codec leg runs at paper scale on one core; ``codec=None`` is the
        uncompressed baseline with no codec leg.  ``freq_ghz`` (already
        validated) pins the DVFS point for both legs; ``None`` is the
        unpinned node.
        """
        spec = get_dataset(dataset)
        cpu = get_cpu(cpu_name)
        lib = get_io_library(io_library)
        if codec is None:
            nbytes, t_c, e_c = spec.paper_nbytes, 0.0, 0.0
            ratio, psnr_db = 1.0, float("inf")
        else:
            if rel_bound is None:
                raise ConfigurationError("rel_bound required when codec is set")
            rt = self.roundtrip(dataset, codec, rel_bound)
            nbytes = max(1, int(round(spec.paper_nbytes / rt.ratio)))
            ratio, psnr_db = rt.ratio, rt.psnr_db
            t_c = self.throughput.runtime(
                codec,
                "compress" if direction == "write" else "decompress",
                spec.paper_nbytes,
                rel_bound,
                cpu,
                threads=1,
                complexity=spec.complexity,
                freq_ghz=freq_ghz,
            )
            e_c = self._meter(cpu, freq_ghz).measure_compute(t_c, 1).energy_j
        report = self.write_report if direction == "write" else self.read_report
        t_io, e_io = report(nbytes, lib, cpu, freq_ghz=freq_ghz)
        return _Cost(nbytes, t_c, e_c, t_io, e_io, ratio, psnr_db)

    def read_point(
        self,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
    ) -> IOPoint:
        """Read-path mirror of :meth:`io_point`: fetch + decompress.

        ``compress_*`` fields carry the *decompression* cost on the read
        path (the codec work needed before analysis can start).
        """
        c = self._cost("read", dataset, codec, rel_bound, io_library, cpu_name)
        return IOPoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            io_library=io_library,
            cpu=cpu_name,
            bytes_written=c.nbytes,
            write_time_s=c.io_time_s,
            write_energy_j=c.io_energy_j,
            compress_time_s=c.codec_time_s,
            compress_energy_j=c.codec_energy_j,
        )

    def io_point(
        self,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
    ) -> IOPoint:
        """One Fig. 11 bar: write compressed (or original) data to the PFS."""
        c = self._cost("write", dataset, codec, rel_bound, io_library, cpu_name)
        return IOPoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            io_library=io_library,
            cpu=cpu_name,
            bytes_written=c.nbytes,
            write_time_s=c.io_time_s,
            write_energy_j=c.io_energy_j,
            compress_time_s=c.codec_time_s,
            compress_energy_j=c.codec_energy_j,
        )

    def pipeline_point(
        self,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
        n_chunks: int = 8,
        overlap: bool = True,
    ) -> PipelinePoint:
        """One block-pipelined write: chunked compress→write, overlapped.

        The dataset is streamed through the pipeline in ``n_chunks`` chunks;
        chunk *k*'s PFS transfer drains while chunk *k+1* compresses, and the
        overlapped load timeline is integrated by the energy stack through
        :func:`~repro.energy.measurement.compose_phases`.  With
        ``overlap=False`` the evaluation collapses to the exact sequential
        path (one compress measurement, one serialize+transfer measurement),
        reproducing :meth:`io_point`'s numbers identically — the pipeline is
        a new execution model, not a recalibration of the old one.
        """
        from repro.energy.measurement import compose_phases
        from repro.iolib.pipeline import PipelineConfig, plan_pipelined_write

        cfg = PipelineConfig(n_chunks=n_chunks, overlap=overlap)
        c = self._cost("write", dataset, codec, rel_bound, io_library, cpu_name)
        if not cfg.overlap:
            # Degenerate control: the monolithic sequential path, verbatim.
            return PipelinePoint(
                dataset=dataset,
                codec=codec,
                rel_bound=rel_bound,
                io_library=io_library,
                cpu=cpu_name,
                n_chunks=cfg.n_chunks,
                overlap=False,
                bytes_written=c.nbytes,
                compress_time_s=c.codec_time_s,
                write_time_s=c.io_time_s,
                total_time_s=c.codec_time_s + c.io_time_s,
                compress_energy_j=c.codec_energy_j,
                write_energy_j=c.io_energy_j,
            )

        # Overlapped: the plan re-prices the transfer chunk by chunk, so only
        # the codec leg of the sequential cost carries over.
        cpu = get_cpu(cpu_name)
        plan = plan_pipelined_write(
            c.nbytes,
            c.codec_time_s,
            self.pfs,
            get_io_library(io_library).cost,
            cpu.speed,
            cfg.n_chunks,
        )
        phases = compose_phases(plan.intervals, max_cores=cpu.cores)
        total_energy = self._meter(cpu).measure(phases).energy_j
        # The compress stage's standalone cost is already measured; the
        # write stage carries the residual, so overlap savings show up as a
        # smaller write energy — mirroring the sequential split.
        return PipelinePoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            io_library=io_library,
            cpu=cpu_name,
            n_chunks=plan.n_chunks,
            overlap=True,
            bytes_written=c.nbytes,
            compress_time_s=c.codec_time_s,
            write_time_s=plan.write_time_s,
            total_time_s=plan.total_time_s,
            compress_energy_j=c.codec_energy_j,
            write_energy_j=max(0.0, total_energy - c.codec_energy_j),
        )

    def dvfs_point(
        self,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        freq_ghz: float,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
    ) -> DvfsPoint:
        """One compress-and-write evaluation with the node pinned at
        ``freq_ghz``.

        The codec's compute time scales on its compute-bound fraction
        (:meth:`~repro.energy.throughput.ThroughputModel.freq_factor`), every
        phase's dynamic power scales as ``(f/fnom)^gamma``, and the PFS
        transfer and serialize durations stay frequency-insensitive.  At
        ``f == fnom`` this reproduces :meth:`io_point` exactly.
        """
        freq = get_cpu(cpu_name).validate_freq(freq_ghz)
        c = self._cost("write", dataset, codec, rel_bound, io_library, cpu_name, freq)
        return DvfsPoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            io_library=io_library,
            cpu=cpu_name,
            freq_ghz=freq,
            bytes_written=c.nbytes,
            compress_time_s=c.codec_time_s,
            write_time_s=c.io_time_s,
            compress_energy_j=c.codec_energy_j,
            write_energy_j=c.io_energy_j,
            ratio=c.ratio,
            psnr_db=c.psnr_db,
        )

    def checkpoint_point(
        self,
        dataset: str,
        codec: str | None,
        rel_bound: float | None,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
        mttf_s: float = float("inf"),
        n_nodes: int = 1,
        work_s: float = 3600.0,
        interval: str | float = "daly",
        seed: int = 0,
        n_chunks: int = 1,
        overlap: bool = False,
        freq_ghz: float | None = None,
        downtime_s: float = 60.0,
    ) -> CheckpointPoint:
        """One checkpointed application lifetime under failures.

        The application computes ``work_s`` seconds (at the node's full core
        count), checkpointing every ``interval`` seconds of progress —
        ``"daly"``/``"young"`` resolve the closed-form optimal interval from
        the checkpoint cost and the system MTTF ``mttf_s / n_nodes``.  Each
        checkpoint write is priced by the same write cost as
        :meth:`io_point` (or :meth:`dvfs_point` when ``freq_ghz`` pins the
        clock), or by :meth:`pipeline_point` when ``n_chunks > 1``; restarts
        are priced by the read cost of :meth:`read_point` (fetch +
        decompress) at the same clock.  Failures are drawn per node from an
        explicit-seed exponential model, the lifetime is simulated
        deterministically, and energy is integrated through
        ``Interval`` → ``compose_phases`` with downtime charged at the power
        model's idle watts.

        With ``mttf_s=inf`` (one trailing checkpoint) the record reproduces
        the underlying write path bit for bit: the final checkpoint *is* the
        paper's single compressed write.
        """
        from repro.energy.measurement import compose_phases
        from repro.energy.power import PowerModel
        from repro.workloads.checkpoint import (
            CheckpointSpec,
            expected_energy,
            expected_makespan,
            resolve_interval,
        )
        from repro.workloads.failures import FailureModel
        from repro.workloads.lifecycle import compact_intervals, run_lifecycle

        cpu = get_cpu(cpu_name)
        if freq_ghz is not None:
            freq_ghz = cpu.validate_freq(freq_ghz)
            if n_chunks > 1:
                raise ConfigurationError(
                    "pipelined checkpoints (n_chunks > 1) cannot be combined "
                    "with a DVFS pin; pick one axis per point"
                )
        if n_chunks > 1:
            pp = self.pipeline_point(
                dataset, codec, rel_bound, io_library, cpu_name, n_chunks, overlap
            )
            c_t, c_e = pp.compress_time_s, pp.compress_energy_j
            w_t, w_e = pp.write_time_s, pp.write_energy_j
            ckpt_time = pp.total_time_s
        else:
            w = self._cost(
                "write", dataset, codec, rel_bound, io_library, cpu_name, freq_ghz
            )
            c_t, c_e = w.codec_time_s, w.codec_energy_j
            w_t, w_e = w.io_time_s, w.io_energy_j
            ckpt_time = c_t + w_t
        # The restart honours the DVFS pin like every other term:
        # decompression scales on its roofline compute fraction, the fetch
        # duration is clock-insensitive, and both integrate power at the
        # pinned frequency.
        restart = self._cost(
            "read", dataset, codec, rel_bound, io_library, cpu_name, freq_ghz
        )
        r_fetch_t, r_fetch_e = restart.io_time_s, restart.io_energy_j
        r_dec_t, r_dec_e = restart.codec_time_s, restart.codec_energy_j

        model = FailureModel(node_mttf_s=mttf_s, n_nodes=n_nodes)
        restart_time = r_fetch_t + r_dec_t
        tau = resolve_interval(interval, ckpt_time, model.system_mttf_s, restart_time)
        spec = CheckpointSpec(
            work_s=work_s,
            interval_s=tau,
            ckpt_s=ckpt_time,
            restart_s=restart_time,
            mttf_s=model.system_mttf_s,
            downtime_s=downtime_s,
        )
        # Timeline labels carry a time-weighted checkpoint activity (compress
        # at full load, transfer at the library's I/O activity); the record's
        # checkpoint/restart *energies* are pro-rated from the exact write
        # and read paths below, never re-integrated from these intervals.
        cost = get_io_library(io_library).cost
        ckpt_act = (
            (c_t + w_t * cost.transfer_activity)
            / ckpt_time
            if ckpt_time > 0
            else 1.0
        )
        stats = run_lifecycle(
            spec,
            model.timeline(seed),
            compute_cores=cpu.cores,
            ckpt_cores=1,
            ckpt_activity=min(1.0, ckpt_act),
            restart_cores=1,
            restart_activity=min(1.0, ckpt_act),
        )

        # Lifetimes run for hours: integrate through the wrap-safe splitter,
        # not the single-window meter (a node-hour is several RAPL wraps).
        meter = self._meter(cpu, freq_ghz)
        compute_phases = compose_phases(
            compact_intervals(stats.intervals, {"compute"}), max_cores=cpu.cores
        )
        compute_j = meter.measure_split(compute_phases).energy_j
        down_phases = compose_phases(
            compact_intervals(stats.intervals, {"down"}), max_cores=cpu.cores
        )
        idle_j = meter.measure_split(down_phases).energy_j

        ckpt_energy = c_e + w_e
        restart_energy = r_fetch_e + r_dec_e
        ckpt_j = stats.n_checkpoints * ckpt_energy
        if ckpt_time > 0 and stats.ckpt_partial_s > 0:
            ckpt_j += (stats.ckpt_partial_s / ckpt_time) * ckpt_energy
        restart_j = stats.n_restarts * restart_energy
        if restart_time > 0 and stats.restart_partial_s > 0:
            restart_j += (stats.restart_partial_s / restart_time) * restart_energy

        power = PowerModel(cpu, freq_ghz=freq_ghz)
        exp_energy = expected_energy(
            spec,
            compute_power_w=power.node_power(cpu.cores, 1.0),
            ckpt_energy_j=ckpt_energy,
            restart_energy_j=restart_energy,
            idle_power_w=power.node_idle_power(),
        )

        return CheckpointPoint(
            dataset=dataset,
            codec=codec,
            rel_bound=rel_bound,
            io_library=io_library,
            cpu=cpu_name,
            mttf_s=float(mttf_s),
            n_nodes=int(n_nodes),
            work_s=float(work_s),
            interval=interval,
            interval_s=tau,
            seed=int(seed),
            n_chunks=int(n_chunks),
            overlap=bool(overlap),
            freq_ghz=freq_ghz,
            downtime_s=float(downtime_s),
            ckpt_compress_time_s=c_t,
            ckpt_write_time_s=w_t,
            ckpt_time_s=ckpt_time,
            ckpt_compress_energy_j=c_e,
            ckpt_write_energy_j=w_e,
            restart_fetch_time_s=r_fetch_t,
            restart_decompress_time_s=r_dec_t,
            restart_fetch_energy_j=r_fetch_e,
            restart_decompress_energy_j=r_dec_e,
            makespan_s=stats.makespan_s,
            n_checkpoints=stats.n_checkpoints,
            n_failures=stats.n_failures,
            rework_s=stats.rework_s,
            compute_energy_j=compute_j,
            checkpoint_energy_j=ckpt_j,
            restart_energy_j=restart_j,
            idle_energy_j=idle_j,
            expected_makespan_s=expected_makespan(spec),
            expected_energy_j=exp_energy,
            ratio=restart.ratio,
            psnr_db=restart.psnr_db,
        )

    # -- figure/table drivers ---------------------------------------------------
    #
    # `run_sweep` is the one grid entrypoint: any registered experiment kind
    # (builtin or plugin) runs through it.

    def run_sweep(self, kind: str, **axes) -> list:
        """Run any registered experiment kind's grid through the engine.

        ``kind`` is looked up in :mod:`repro.runtime.registry`; the
        remaining keyword arguments are :class:`~repro.runtime.spec.
        SweepSpec` axis overrides.  An unknown kind raises
        :class:`~repro.errors.ConfigurationError` naming the known kinds.
        """
        from repro.runtime.spec import SweepSpec

        return self.engine.run(SweepSpec(kind=kind, **axes))

    def _campaign(
        self,
        dataset: str,
        cpu_name: str,
        io_library: str,
        payload_nbytes: int | None = None,
    ) -> MultiNodeCampaign:
        """The Fig. 12 machine model for ``dataset`` on one node type.

        The per-rank payload defaults to one field of the dataset (the
        snapshot's six fields make a full copy per rank implausible on
        192 GB nodes at 48 ranks; see EXPERIMENTS.md).  Both
        :meth:`run_multinode` and the ``cluster`` kind build their campaign
        here, so a one-tenant cluster point and a Fig. 12 point agree.
        """
        from repro.cluster.campaign import MultiNodeCampaign

        spec = get_dataset(dataset)
        if payload_nbytes is None:
            payload_nbytes = spec.paper_nbytes // 6
        return MultiNodeCampaign(
            cpu=get_cpu(cpu_name),
            pfs=self.pfs,
            io_library=get_io_library(io_library),
            payload_nbytes=payload_nbytes,
            complexity=spec.complexity,
            throughput=self.throughput,
            sample_interval=max(self.sample_interval, 0.02),
        )

    def run_multinode(
        self,
        cores=(16, 32, 64, 128, 256, 512),
        codecs=("sz2", "sz3", "zfp", "qoz"),
        dataset: str = "nyx",
        rel_bound: float = 1e-3,
        cpu_name: str = "plat8160",
        io_library: str = "hdf5",
        payload_nbytes: int | None = None,
    ) -> list[CampaignResult]:
        """Fig. 12: N*R ranks compress + write vs the uncompressed baseline."""
        campaign = self._campaign(dataset, cpu_name, io_library, payload_nbytes)
        out = []
        for n in cores:
            out.append(campaign.run(n, None))
            for codec in codecs:
                rt = self.roundtrip(dataset, codec, rel_bound)
                out.append(
                    campaign.run(n, codec, rel_bound, compression_ratio=rt.ratio)
                )
        return out

    def run_inflation(
        self,
        factors=(1, 2, 3, 4, 5),
        codecs=("sz2", "sz3", "zfp", "qoz", "szx"),
        dataset: str = "nyx",
        rel_bound: float = 1e-3,
        cpu_name: str = "plat8260m",
        base_scale: str = "test",
    ) -> list[InflationPoint]:
        """Fig. 13: serial energy vs inflated NYX sizes.

        The synthetic base is inflated for real (real ratios per factor);
        energy is modeled at paper scale, where factor f makes the 512^3
        snapshot grow to (512 f)^3 — the paper's 0.5 ... 62.5 GB x-axis.
        """
        from repro.data.inflate import inflate

        spec = get_dataset(dataset)
        cpu = get_cpu(cpu_name)
        base = np.array(generate(dataset, base_scale))
        meter = self._meter(cpu)
        out = []
        for f in factors:
            data = inflate(base, f)
            for codec in codecs:
                comp = get_compressor(codec)
                buf = comp.compress(data, rel_bound)
                paper_bytes = spec.paper_nbytes * f**3
                energies = {}
                for direction in ("compress", "decompress"):
                    t = self.throughput.runtime(
                        codec,
                        direction,
                        paper_bytes,
                        rel_bound,
                        cpu,
                        threads=1,
                        complexity=spec.complexity,
                    )
                    energies[direction] = meter.measure_compute(t, 1).energy_j
                out.append(
                    InflationPoint(
                        codec=codec,
                        factor=f,
                        paper_gb=paper_bytes / 1e9,
                        ratio=buf.ratio,
                        compress_energy_j=energies["compress"],
                        decompress_energy_j=energies["decompress"],
                    )
                )
        return out

    # -- convenience -----------------------------------------------------------

    def measure_compression(
        self,
        codec: str,
        data: np.ndarray,
        rel_bound: float,
        cpu_name: str = "plat8160",
        threads: int = 1,
    ):
        """Ad-hoc measurement for user arrays: real compression + modeled energy."""
        buf = get_compressor(codec).compress(np.ascontiguousarray(data), rel_bound)
        return buf, self.compression_energy(
            codec, data.nbytes, rel_bound, cpu_name=cpu_name, threads=threads
        )

    def compression_energy(
        self,
        codec: str,
        nbytes: int,
        rel_bound: float,
        cpu_name: str = "plat8160",
        threads: int = 1,
    ):
        """Modeled energy report of compressing ``nbytes`` with ``codec``."""
        return compression_energy(
            codec, nbytes, rel_bound, get_cpu(cpu_name), threads=threads,
            throughput=self.throughput, sample_interval=self.sample_interval,
        )
