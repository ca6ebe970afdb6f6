"""Simulated RAPL energy counters (Linux powercap layout).

Real RAPL exposes one monotonically increasing microjoule counter per
package zone (``intel-rapl:0``, ``intel-rapl:1``, ...) that wraps at
``max_energy_range_uj``.  The simulation reproduces that contract — counter
semantics and wrap-around — on plain integer counters over a virtual clock,
which the PAPI sampling rules (:mod:`repro.energy.papi`) step phase by
phase.

Power is constant within one load level, so a span of ``n`` equal clock
ticks is integrated in closed form: every tick deposits the same integer
microjoule quantum, the counter moves by ``n`` quanta modulo the wrap range,
and the clock is the exact sequential float sum of the tick lengths
(:func:`step_sequence`), bit-identical to advancing one tick at a time.
:func:`integrate_phase` is the one copy of those quantum, wrap and clock
rules; :class:`~repro.energy.measurement.EnergyMeter` runs it on counters
that start at zero.  :func:`phase_energies` is its array form for phases
that are each metered on their own from zero (the cluster's node phases):
the same quanta, read every tick so no wrap is lost, and no clock.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.energy.power import PowerModel
from repro.errors import ConfigurationError

__all__ = [
    "clock_after",
    "counter_after",
    "integrate_phase",
    "phase_energies",
    "step_sequence",
]

#: powercap's typical wrap range (~262 kJ) — kept so wrap handling is honest.
DEFAULT_MAX_ENERGY_RANGE_UJ = 262_143_328_850

#: Longest run of ticks walked in one numpy call; keeps memory O(1) in the
#: length of a phase.
STEP_CHUNK = 1 << 16


def step_sequence(
    ufunc: np.ufunc,
    start: float,
    step: float,
    count: int | None = None,
    size_hint: int = STEP_CHUNK,
) -> Iterator[np.ndarray]:
    """Yield the float sequence ``x = ufunc(x, step)`` from ``start`` in chunks.

    Each yielded array holds the next values of ``x`` (``start`` itself is
    not repeated).  ``ufunc.accumulate`` is strictly sequential, so the
    values equal applying ``x = x + step`` (``np.add``) or ``x = x - step``
    (``np.subtract``) one Python float operation at a time.  ``count=None``
    walks until the caller stops iterating; ``count`` bounds the total.
    ``size_hint`` sizes the first chunk, so short unbounded walks stay cheap.
    """
    x = float(start)
    left = count
    n = max(1, min(size_hint, STEP_CHUNK))
    while left is None or left > 0:
        if left is not None:
            n = min(n, left)
            left -= n
        buf = np.full(n + 1, step, dtype=np.float64)
        buf[0] = x
        ufunc.accumulate(buf, out=buf)
        yield buf[1:]
        x = buf[-1]
        n = STEP_CHUNK


def counter_after(start_uj: int, joules: float, times: int, max_range: int) -> int:
    """The reading ``times`` deposits of ``joules`` move ``start_uj`` to.

    Each deposit adds ``round(joules * 1e6)`` whole microjoules and the
    counter wraps at ``max_range``, as the hardware does.
    """
    if joules < 0:
        raise ConfigurationError("cannot deposit negative energy")
    return (start_uj + times * round(joules * 1e6)) % max_range


def integrate_phase(
    power: PowerModel,
    counters: list[int],
    ranges: Sequence[int],
    now: float,
    dt: float,
    active_cores: int,
    activity: float,
    ticks: int,
    tail: float,
) -> tuple[tuple[float, ...], float]:
    """Integrate ``ticks`` steps of ``dt`` seconds, then one ``tail`` step
    if positive, all at one constant load level.

    ``counters[p]`` is package ``p``'s reading; it takes the per-step
    quantum ``ticks`` times plus the tail quantum, wrapping at
    ``ranges[p]``, and is updated in place.  The clock ``now`` takes the
    same float additions as stepping one tick at a time.  Returns each
    package's power (W) and the clock after the phase.
    """
    if not (math.isfinite(dt) and math.isfinite(tail)):
        raise ConfigurationError("time step must be finite")
    if dt < 0 or tail < 0 or ticks < 0:
        raise ConfigurationError("cannot advance time backwards")
    watts = tuple(
        power.package_power(p, active_cores, activity) for p in range(len(counters))
    )
    for p, (w, max_range) in enumerate(zip(watts, ranges)):
        reading = counter_after(counters[p], w * dt, ticks, max_range)
        if tail > 0:
            reading = counter_after(reading, w * tail, 1, max_range)
        counters[p] = reading
    return watts, clock_after(now, dt, ticks, tail)


def clock_after(now: float, dt: float, ticks: int, tail: float) -> float:
    """The clock after ``ticks`` steps of ``dt`` and a positive ``tail``,
    by the same float additions as stepping one tick at a time."""
    for chunk in step_sequence(np.add, now, dt, ticks):
        now = float(chunk[-1])
    if tail > 0:
        now += tail
    return now


def phase_energies(
    power: PowerModel,
    dt: float,
    active_cores,
    activity,
    ticks,
    tails,
) -> np.ndarray:
    """Node joules of each phase, metered on its own from zeroed counters.

    Phase ``i`` takes ``ticks[i]`` steps of ``dt`` seconds, then one
    ``tails[i]`` step if positive, at ``active_cores[i]`` and
    ``activity[i]``.  Each package deposits the quanta of
    :func:`integrate_phase`, ``ticks × quantum + tail quantum`` whole
    microjoules, with no modulo: the sampler reads the counter every tick
    and one tick deposits far less than the wrap range, so the walk never
    loses a wrap.  Below the wrap range every result equals
    :func:`integrate_phase` bit for bit.  Package power is computed once per
    distinct ``(cores, activity)`` pair of the phases that take a step; a
    total past the int64 counter raises ``ConfigurationError``.
    """
    if not (math.isfinite(dt) and dt >= 0):
        raise ConfigurationError("time step must be finite and non-negative")
    ticks = np.asarray(ticks, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.float64)
    if (ticks < 0).any() or (tails < 0).any() or not np.isfinite(tails).all():
        raise ConfigurationError("cannot advance time backwards")
    sockets = power.cpu.sockets
    stepped = (ticks > 0) | (tails > 0)
    loads: dict[tuple[int, float], int] = {}
    rows = [
        loads.setdefault(load, len(loads))
        for load, step in zip(zip(active_cores, activity), stepped.tolist())
        if step
    ]
    watts = np.zeros((ticks.size, sockets))
    if rows:
        table = np.array(
            [[power.package_power(p, *load) for p in range(sockets)] for load in loads]
        )
        watts[stepped] = table[rows]
    quanta = np.rint(watts * dt * 1e6).astype(np.int64)
    tail_quanta = np.rint(watts * tails[:, None] * 1e6).astype(np.int64)
    room = (np.iinfo(np.int64).max - tail_quanta) // np.maximum(quanta, 1)
    if (ticks[:, None] > room).any():
        raise ConfigurationError(
            "phase energy exceeds the int64 microjoule counter"
        )
    zones = (ticks[:, None] * quanta + tail_quanta) / 1e6
    # Eq. 6 sums the zones in package order, as ``sum`` over a report does.
    joules = zones[:, 0].copy()
    for p in range(1, sockets):
        joules += zones[:, p]
    return joules
