"""Failure-aware application lifetimes, simulated one delay at a time.

This is the simulation counterpart to the closed forms in
:mod:`repro.workloads.checkpoint`: :func:`run_lifecycle` lives through
compute segments, checkpoint writes, failure interrupts, downtime, restart
fetches and rework, emitting an absolute-time
:class:`~repro.energy.measurement.Interval` timeline as it goes.  The
timeline feeds :func:`~repro.energy.measurement.compose_phases`, so the
RAPL/PAPI energy stack integrates the lifetime exactly like it integrates a
pipelined write — downtime becomes zero-core idle phases charged at the
power model's idle watts.

The clock advances by one float addition per elapsed delay (a phase, the
part of a phase a failure cut short, or a downtime window), never by
assignment to a failure time.  Every random draw comes from the explicit
seed buried in the :class:`~repro.workloads.failures.FailureTimeline`; the
simulation itself contains no randomness, which is what makes repeated runs
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.measurement import Interval
from repro.errors import SimulationError
from repro.workloads.checkpoint import CheckpointSpec
from repro.workloads.failures import FailureTimeline

__all__ = [
    "LifecycleStats",
    "run_lifecycle",
    "compact_intervals",
    "trace_intervals",
]

#: Hard cap on failures per lifetime: a work_s ≫ mttf_s configuration would
#: otherwise loop (almost) forever without ever committing a segment.
MAX_FAILURES = 100_000


@dataclass(frozen=True)
class LifecycleStats:
    """One simulated application lifetime, fully accounted.

    Busy times are integrals over the labelled intervals (partial, aborted
    attempts included), so ``compute_busy_s`` minus the useful work is
    exactly the rework.  ``intervals`` is the absolute-time load timeline —
    ``compose_phases`` turns it into meter-ready phases; downtime windows
    are recorded explicitly as zero-core ``"down"`` intervals so idle power
    is accounted.
    """

    work_s: float
    makespan_s: float
    n_checkpoints: int  # committed
    n_ckpt_attempts: int  # started (committed + failure-aborted)
    n_failures: int
    n_restarts: int  # completed restart fetches
    n_restart_attempts: int
    compute_busy_s: float  # useful work + rework
    ckpt_busy_s: float
    restart_busy_s: float
    downtime_s: float
    intervals: tuple[Interval, ...]
    ckpt_partial_s: float = 0.0  # busy seconds in failure-aborted checkpoints
    restart_partial_s: float = 0.0  # busy seconds in failure-aborted restarts

    @property
    def rework_s(self) -> float:
        return self.compute_busy_s - self.work_s

    @property
    def ckpt_committed_s(self) -> float:
        """Busy seconds inside checkpoints that actually committed."""
        return self.ckpt_busy_s - self.ckpt_partial_s


def compact_intervals(intervals, labels: set[str] | None = None) -> list[Interval]:
    """Re-base selected intervals onto a gapless timeline, order preserved.

    Used to integrate one activity class (e.g. compute + downtime) through
    :func:`~repro.energy.measurement.compose_phases` without the composer
    minting idle phases for the windows other activities occupied.
    """
    out: list[Interval] = []
    t = 0.0
    for iv in sorted(intervals, key=lambda iv: (iv.start_s, iv.end_s)):
        if labels is not None and iv.label not in labels:
            continue
        d = iv.end_s - iv.start_s
        out.append(Interval(t, t + d, iv.active_cores, iv.activity, iv.label))
        t += d
    return out


def trace_intervals(tracer, intervals, track: str, offset_s: float = 0.0) -> None:
    """Emit one virtual span per labelled interval onto ``track``.

    ``offset_s`` re-bases a locally-timed lifecycle (simulated from t=0)
    onto an absolute cluster timeline (the tenant's start time).
    """
    for iv in intervals:
        tracer.add_span(
            iv.label, track, offset_s + iv.start_s, offset_s + iv.end_s,
            active_cores=iv.active_cores, activity=iv.activity,
        )


def run_lifecycle(
    spec: CheckpointSpec,
    timeline: FailureTimeline | None = None,
    compute_cores: int = 1,
    ckpt_cores: int = 1,
    ckpt_activity: float = 1.0,
    restart_cores: int = 1,
    restart_activity: float = 1.0,
) -> LifecycleStats:
    """Simulate one lifetime to completion and return its stats."""
    if timeline is not None and timeline.model.failure_free:
        timeline = None
    now = 0.0
    intervals: list[Interval] = []
    busy = {"compute": 0.0, "checkpoint": 0.0, "restart": 0.0}
    failures = checkpoints = ckpt_attempts = restarts = restart_attempts = 0
    downtime_total = 0.0

    def phase(duration, cores, activity, label) -> bool:
        """Run one vulnerable phase; returns True iff it completed."""
        nonlocal now
        if duration <= 0:
            return True
        start = now
        end = start + duration
        cut = timeline.next_after(start) if timeline is not None else None
        if cut is not None and cut < end:
            intervals.append(Interval(start, cut, cores, activity, label))
            busy[label] += cut - start
            now += cut - start
            return False
        intervals.append(Interval(start, end, cores, activity, label))
        busy[label] += duration
        now += float(duration)
        return True

    def fail_and_restart() -> None:
        """Downtime then restart attempts until one survives."""
        nonlocal now, failures, restarts, restart_attempts, downtime_total
        while True:
            failures += 1
            if failures > MAX_FAILURES:
                raise SimulationError(
                    f"lifecycle exceeded {MAX_FAILURES} failures; "
                    "work_s is unreachable at this MTTF"
                )
            if spec.downtime_s > 0:
                intervals.append(Interval(now, now + spec.downtime_s, 0, 0.0, "down"))
                downtime_total += spec.downtime_s
                now += float(spec.downtime_s)
            restart_attempts += 1
            if spec.restart_s <= 0 or phase(
                spec.restart_s, restart_cores, restart_activity, "restart"
            ):
                restarts += 1
                return

    segments = spec.segments
    seg_idx = 0
    while seg_idx < len(segments):
        if not phase(segments[seg_idx], compute_cores, 1.0, "compute"):
            fail_and_restart()
            continue
        ckpt_attempts += 1
        if not phase(spec.ckpt_s, ckpt_cores, ckpt_activity, "checkpoint"):
            fail_and_restart()
            continue
        checkpoints += 1
        seg_idx += 1

    return LifecycleStats(
        work_s=spec.work_s,
        makespan_s=now,
        n_checkpoints=checkpoints,
        n_ckpt_attempts=ckpt_attempts,
        n_failures=failures,
        n_restarts=restarts,
        n_restart_attempts=restart_attempts,
        compute_busy_s=busy["compute"],
        ckpt_busy_s=busy["checkpoint"],
        restart_busy_s=busy["restart"],
        downtime_s=downtime_total,
        intervals=tuple(intervals),
        ckpt_partial_s=busy["checkpoint"] - checkpoints * spec.ckpt_s,
        restart_partial_s=busy["restart"] - restarts * spec.restart_s,
    )
