"""Block-pipelined compressed-I/O: chunked compress→write with overlap.

The sequential model (``Testbed.io_point``) treats a write as a monolithic
compress-then-transfer sequence — the whole file is compressed, then the
whole file drains to the PFS.  Real parallel-write pipelines (CEAZ, the
HDF5 deep-integration line of work) instead stream the dataset through in
chunks: while chunk *k* drains to storage, chunk *k+1* is already being
compressed, so the compute and I/O stages overlap and total time drops
toward ``max(compress, write)`` instead of their sum.

This module models that pipeline on top of the existing substrates:

- the dataset is decomposed into leading-axis chunks
  (:func:`~repro.compressors.blocks.chunk_array`, re-exported here) or, for
  the fluid model, into byte spans (:func:`chunk_spans`);
- the compress+serialize stage runs the chunks back to back on one core;
- each chunk becomes a PFS flow the moment its stage work finishes, solved
  by the fair-share fluid model with staggered arrivals
  (:meth:`~repro.iolib.pfs.PFSModel.pipelined_write_times`);
- the overlapped timeline is expressed as absolute-time
  :class:`~repro.energy.measurement.Interval` segments that
  :func:`~repro.energy.measurement.compose_phases` turns into the stepped
  phase list the RAPL/PAPI energy stack integrates.

With ``overlap=False`` the callers fall back to the exact sequential code
path, byte-identical to the existing figures — the pipeline is additive,
never a recalibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.blocks import chunk_array
from repro.energy.measurement import Interval
from repro.errors import ConfigurationError
from repro.iolib.base import WriteCostModel
from repro.iolib.pfs import PFSModel
from repro.obs.trace import active_tracer

__all__ = [
    "PipelineConfig",
    "PipelinePlan",
    "chunk_spans",
    "chunk_array",
    "plan_pipelined_write",
]


@dataclass(frozen=True)
class PipelineConfig:
    """How a dataset is streamed through the compress→write pipeline."""

    n_chunks: int = 8
    overlap: bool = True

    def __post_init__(self):
        if self.n_chunks < 1:
            raise ConfigurationError("n_chunks must be >= 1")


def chunk_spans(total_nbytes: int, n_chunks: int) -> np.ndarray:
    """Byte sizes of the pipeline chunks (even split, remainder spread).

    Every span is at least one byte, so tiny payloads yield fewer chunks
    than requested rather than empty flows.
    """
    if total_nbytes < 1:
        raise ConfigurationError("total_nbytes must be >= 1")
    if n_chunks < 1:
        raise ConfigurationError("n_chunks must be >= 1")
    n = min(int(n_chunks), int(total_nbytes))
    base, rem = divmod(int(total_nbytes), n)
    sizes = np.full(n, base, dtype=np.int64)
    sizes[:rem] += 1
    return sizes


@dataclass(frozen=True)
class PipelinePlan:
    """The solved timeline of one pipelined write.

    All times are absolute seconds from the start of the compress stage.
    ``intervals`` is the overlapped load timeline ready for
    :func:`~repro.energy.measurement.compose_phases`.
    """

    chunk_bytes: tuple[int, ...]
    compress_start: tuple[float, ...]
    stage_finish: tuple[float, ...]  # compress + serialize done, per chunk
    write_arrival: tuple[float, ...]
    write_finish: tuple[float, ...]
    total_time_s: float  # overlapped makespan incl. the close latency
    compress_time_s: float  # stage busy time: compression alone
    write_time_s: float  # stage busy time: serialize + transfer, as if alone
    intervals: tuple[Interval, ...]

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_bytes)

    @property
    def sequential_time_s(self) -> float:
        """What the same work costs with no overlap (stage sum)."""
        return self.compress_time_s + self.write_time_s

    @property
    def overlap_saving_s(self) -> float:
        return self.sequential_time_s - self.total_time_s


def plan_pipelined_write(
    out_nbytes: int,
    compress_s: float,
    pfs: PFSModel,
    cost: WriteCostModel,
    cpu_speed: float = 1.0,
    n_chunks: int = 8,
) -> PipelinePlan:
    """Solve the overlapped compress→serialize→transfer timeline.

    The chunks run their compress+serialize stage back to back on one core;
    ``compress_s`` (the whole-dataset compression time; zero for the
    uncompressed baseline) is spread over them in proportion to their bytes,
    so the stage total is identical to the monolithic model.  Chunk *i*'s
    flow enters the PFS the instant its serialize pass ends (plus the
    per-chunk metadata its library charges), so transfers drain underneath
    the remaining compress work.
    """
    if compress_s < 0:
        raise ConfigurationError("compress_s must be non-negative")
    sizes = chunk_spans(out_nbytes, n_chunks)
    t_compress = compress_s * (sizes / float(sizes.sum()))
    t_serialize = np.array(
        [cost.serialize_seconds(int(s), cpu_speed) for s in sizes]
    )
    stage = t_compress + t_serialize
    stage_finish = np.cumsum(stage)
    stage_start = stage_finish - stage
    # The MDS open latency is charged once, by the PFS solver.
    arrivals = stage_finish + cost.chunk_meta_latency_s * np.arange(sizes.size)
    finish = pfs.pipelined_write_times(
        sizes.astype(np.float64), arrivals, efficiency=cost.bandwidth_efficiency
    )
    write_arrival = tuple(float(a) + pfs.metadata_latency_s for a in arrivals)
    total = float(finish.max()) + cost.open_latency_s

    write_alone = (
        float(t_serialize.sum())
        + pfs.single_write_seconds(int(sizes.sum()), cost.bandwidth_efficiency)
        + cost.open_latency_s
    )

    intervals: list[Interval] = []
    for i in range(sizes.size):
        c0 = float(stage_start[i])
        if t_compress[i] > 0:
            intervals.append(
                Interval(c0, c0 + float(t_compress[i]), 1, 1.0, "compress")
            )
        if t_serialize[i] > 0:
            intervals.append(
                Interval(
                    c0 + float(t_compress[i]), float(stage_finish[i]), 1, 1.0,
                    "write",
                )
            )
        intervals.append(
            Interval(
                write_arrival[i], float(finish[i]), 1, cost.transfer_activity,
                "write",
            )
        )
    # File close/commit tail after the last flow drains.
    intervals.append(
        Interval(float(finish.max()), total, 1, cost.transfer_activity, "write")
    )

    plan = PipelinePlan(
        chunk_bytes=tuple(int(s) for s in sizes),
        compress_start=tuple(float(s) for s in stage_start),
        stage_finish=tuple(float(s) for s in stage_finish),
        write_arrival=write_arrival,
        write_finish=tuple(float(f) for f in finish),
        total_time_s=total,
        compress_time_s=float(compress_s),
        write_time_s=write_alone,
        intervals=tuple(intervals),
    )
    tracer = active_tracer()
    if tracer is not None:
        _trace_plan(tracer, plan)
    return plan


def _trace_plan(tracer, plan: PipelinePlan) -> None:
    """Virtual spans for one solved pipeline: stage track + PFS track.

    Two tracks render the overlap the plan exists to win: chunk *k*'s PFS
    drain runs underneath chunk *k+1*'s stage work.
    """
    for i in range(plan.n_chunks):
        tracer.add_span(
            f"stage:chunk{i}", "pipeline:stage",
            plan.compress_start[i], plan.stage_finish[i],
            chunk=i, nbytes=plan.chunk_bytes[i],
        )
        tracer.add_span(
            f"pfs:chunk{i}", "pipeline:pfs",
            plan.write_arrival[i], plan.write_finish[i],
            chunk=i, nbytes=plan.chunk_bytes[i],
        )
    tracer.add_span(
        "pipelined-write", "pipeline:pfs",
        plan.compress_start[0] if plan.n_chunks else 0.0, plan.total_time_s,
        n_chunks=plan.n_chunks, total_time_s=plan.total_time_s,
        overlap_saving_s=plan.overlap_saving_s,
    )
