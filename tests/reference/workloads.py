"""The application lifetime as a generator process on the event loop.

:func:`repro.workloads.lifecycle.run_lifecycle` is checked against
:func:`reference_run_lifecycle`: every ``LifecycleStats`` field, every
interval, and the ``SimulationError`` past ``MAX_FAILURES``.
"""

from __future__ import annotations

from reference.events import EventLoop

from repro.energy.measurement import Interval
from repro.errors import SimulationError
from repro.workloads import lifecycle
from repro.workloads.lifecycle import LifecycleStats


def lifecycle_process(
    loop: EventLoop,
    spec,
    timeline,
    compute_cores: int = 1,
    ckpt_cores: int = 1,
    ckpt_activity: float = 1.0,
    restart_cores: int = 1,
    restart_activity: float = 1.0,
):
    """The application generator; its return value is the lifetime's
    :class:`LifecycleStats`."""
    if timeline is not None and timeline.model.failure_free:
        timeline = None
    intervals: list[Interval] = []
    busy = {"compute": 0.0, "checkpoint": 0.0, "restart": 0.0}
    counts = {
        "failures": 0,
        "checkpoints": 0,
        "ckpt_attempts": 0,
        "restarts": 0,
        "restart_attempts": 0,
    }
    downtime_total = 0.0

    def phase(duration, cores, activity, label):
        """Run one vulnerable phase; returns True iff it completed."""
        if duration <= 0:
            return True
        start = loop.now
        end = start + duration
        cut = timeline.next_after(start) if timeline is not None else None
        if cut is not None and cut < end:
            intervals.append(Interval(start, cut, cores, activity, label))
            busy[label] += cut - start
            yield cut - start
            return False
        intervals.append(Interval(start, end, cores, activity, label))
        busy[label] += duration
        yield duration
        return True

    def fail_and_restart():
        """Downtime then restart attempts until one survives."""
        nonlocal downtime_total
        while True:
            counts["failures"] += 1
            if counts["failures"] > lifecycle.MAX_FAILURES:
                raise SimulationError(
                    f"lifecycle exceeded {lifecycle.MAX_FAILURES} failures; "
                    "work_s is unreachable at this MTTF"
                )
            if spec.downtime_s > 0:
                intervals.append(
                    Interval(loop.now, loop.now + spec.downtime_s, 0, 0.0, "down")
                )
                downtime_total += spec.downtime_s
                yield spec.downtime_s
            counts["restart_attempts"] += 1
            if spec.restart_s <= 0:
                counts["restarts"] += 1
                return
            ok = yield from phase(
                spec.restart_s, restart_cores, restart_activity, "restart"
            )
            if ok:
                counts["restarts"] += 1
                return

    segments = spec.segments
    seg_idx = 0
    while seg_idx < len(segments):
        ok = yield from phase(segments[seg_idx], compute_cores, 1.0, "compute")
        if not ok:
            yield from fail_and_restart()
            continue
        counts["ckpt_attempts"] += 1
        ok = yield from phase(spec.ckpt_s, ckpt_cores, ckpt_activity, "checkpoint")
        if not ok:
            yield from fail_and_restart()
            continue
        counts["checkpoints"] += 1
        seg_idx += 1

    return LifecycleStats(
        work_s=spec.work_s,
        makespan_s=loop.now,
        n_checkpoints=counts["checkpoints"],
        n_ckpt_attempts=counts["ckpt_attempts"],
        n_failures=counts["failures"],
        n_restarts=counts["restarts"],
        n_restart_attempts=counts["restart_attempts"],
        compute_busy_s=busy["compute"],
        ckpt_busy_s=busy["checkpoint"],
        restart_busy_s=busy["restart"],
        downtime_s=downtime_total,
        intervals=tuple(intervals),
        ckpt_partial_s=busy["checkpoint"] - counts["checkpoints"] * spec.ckpt_s,
        restart_partial_s=busy["restart"] - counts["restarts"] * spec.restart_s,
    )


def reference_run_lifecycle(spec, timeline=None, **kwargs) -> LifecycleStats:
    """One lifetime on a fresh event loop; its stats come back through
    ``Process.result``."""
    loop = EventLoop()
    proc = loop.spawn(lifecycle_process(loop, spec, timeline, **kwargs))
    loop.run()
    return proc.result
