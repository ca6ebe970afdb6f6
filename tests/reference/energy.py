"""The PAPI polling loop over RAPL counters, one tick at a time.

``tick_split``/``tick_splits`` with ``integrate_phase``/``phase_energies``
(and the :class:`~repro.energy.measurement.EnergyMeter` built on them) are
checked against :func:`reference_window`.
"""

from __future__ import annotations

from repro.energy.rapl import DEFAULT_MAX_ENERGY_RANGE_UJ

#: Remaining phase time at or below this is float drift, not a tick.
FLOOR = 1e-12


def reference_window(power, interval, phases, max_range=DEFAULT_MAX_ENERGY_RANGE_UJ):
    """Sample ``phases`` one tick at a time from zeroed counters.

    ``phases`` are ``(duration, cores, activity)``.  Every tick steps
    ``min(interval, remaining)``, deposits ``round(P * step * 1e6)``
    microjoules per package modulo ``max_range`` and takes a sample, while
    more than :data:`FLOOR` of the phase remains.  Returns the clock, the
    counters and the number of samples, the start snapshot included.
    """
    counters = [0] * power.cpu.sockets
    now = 0.0
    n_samples = 1
    for duration, cores, activity in phases:
        watts = [power.package_power(p, cores, activity) for p in range(len(counters))]
        remaining = duration
        while remaining > FLOOR:
            step = min(interval, remaining)
            for p, w in enumerate(watts):
                counters[p] = (counters[p] + round(w * step * 1e6)) % max_range
            now += step
            n_samples += 1
            remaining -= step
    return now, counters, n_samples
