"""PAPI-powercap-style sampling rules over the simulated RAPL counters.

Section IV-B: energy is reported as the discrete sum ``E = Σ P(t_i) Δt`` of
sampled power readings.  The PAPI polling loop steps the virtual clock in
fixed ``sample_interval`` increments across each workload phase, reading
the counters at every tick, so the reported energy inherits the same
discretization the paper's numbers have (the final partial interval is
sampled too, as PAPI's stop() does).

Power is constant within a phase, so the ticks of one phase are not walked
one by one: :func:`tick_split` finds how many full ticks and what partial
tail the polling loop would take (:func:`tick_splits` for many phases at
once), and :func:`~repro.energy.rapl.integrate_phase` integrates them in
closed form.  Counters, clock and joules are bit-identical to sampling tick
by tick.
"""

from __future__ import annotations

import math

import numpy as np

from repro.energy.rapl import STEP_CHUNK, step_sequence
from repro.errors import ConfigurationError

__all__ = [
    "check_sample_interval",
    "tick_split",
    "tick_splits",
]

#: Remaining phase time at or below this is float drift, not a tick.
PHANTOM_FLOOR = 1e-12


def check_sample_interval(sample_interval: float) -> None:
    """Reject a sampling step the polling loop could never finish with."""
    if not (math.isfinite(sample_interval) and sample_interval > 0):
        raise ConfigurationError(
            f"sample_interval must be finite and positive, got {sample_interval!r}"
        )


def tick_split(duration: float, interval: float) -> tuple[int, float]:
    """``(ticks, tail)`` of sampling a ``duration`` phase every ``interval``.

    The polling loop steps ``min(interval, remaining)`` and subtracts it
    while ``remaining > 1e-12``: it takes ``ticks`` full steps of
    ``interval``, then one ``tail`` step if ``tail > 0``.  Both come from the
    exact float sequence of ``remaining``, walked in bounded chunks.  A
    non-finite or negative ``duration`` raises ``ConfigurationError``.
    """
    if not math.isfinite(duration):
        raise ConfigurationError(f"phase duration must be finite, got {duration!r}")
    if duration < 0:
        raise ConfigurationError("phase duration must be non-negative")
    stop = max(interval, PHANTOM_FLOOR)
    if duration <= stop:
        return 0, (float(duration) if duration > PHANTOM_FLOOR else 0.0)
    ticks = 0
    hint = int(min(duration / interval, STEP_CHUNK)) + 2
    for chunk in step_sequence(np.subtract, duration, interval, size_hint=hint):
        below = chunk <= stop
        i = int(below.argmax())
        if below[i]:
            rest = float(chunk[i])
            return ticks + i + 1, (rest if rest > PHANTOM_FLOOR else 0.0)
        if chunk[-1] == chunk[-2]:
            raise ConfigurationError(
                f"sample_interval {interval!r} is below the float resolution "
                f"of a {duration!r} s phase"
            )
        ticks += chunk.size
    raise AssertionError("unreachable: step_sequence is unbounded")


#: Cells of one :func:`tick_splits` walk buffer; keeps memory flat in the
#: number and length of the phases.
WALK_CELLS = 1 << 16


def tick_splits(durations, interval: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tick_split` of every duration at once: ``(ticks, tails)``.

    Phases still above the stop value are walked together, one column per
    phase, by ``np.subtract.accumulate`` down the rows of a buffer of at
    most :data:`WALK_CELLS` cells; each column takes the same float
    subtractions as :func:`tick_split`, so every pair is bit-identical to it.
    """
    d = np.asarray(durations, dtype=np.float64).ravel()
    bad = ~np.isfinite(d) | (d < 0)
    if bad.any():
        tick_split(float(d[bad.argmax()]), interval)  # raises the typed error
    stop = max(interval, PHANTOM_FLOOR)
    ticks = np.zeros(d.size, dtype=np.int64)
    tails = np.where(d > PHANTOM_FLOOR, d, 0.0)
    todo = np.flatnonzero(d > stop)
    x = d[todo]
    walked = 0
    while todo.size:
        # Enough rows for the longest phase left, within the cell budget.
        width = min(
            max(WALK_CELLS // todo.size, 1),
            int(min(x.max() / interval, STEP_CHUNK)) + 2,
        )
        buf = np.full((width + 1, todo.size), interval)
        buf[0] = x
        np.subtract.accumulate(buf, axis=0, out=buf)
        below = buf[1:] <= stop
        hit = below.any(axis=0)
        first = below.argmax(axis=0)[hit]
        rest = buf[first + 1, np.flatnonzero(hit)]
        ticks[todo[hit]] = walked + first + 1
        tails[todo[hit]] = np.where(rest > PHANTOM_FLOOR, rest, 0.0)
        miss = ~hit
        if (buf[-1, miss] == buf[-2, miss]).any():
            raise ConfigurationError(
                f"sample_interval {interval!r} is below the float resolution "
                f"of a {float(d[todo[miss]].max())!r} s phase"
            )
        todo, x = todo[miss], buf[-1, miss]
        walked += width
    return ticks, tails
