"""PAPI-powercap-style sampling monitor over the simulated RAPL zones.

Section IV-B: energy is reported as the discrete sum ``E = Σ P(t_i) Δt`` of
sampled power readings.  :class:`PapiPowercapMonitor` reproduces that
measurement: it steps the virtual clock in fixed ``sample_interval``
increments across each workload phase, reading the counters at every tick,
so the reported energy inherits the same discretization the paper's numbers
have (the final partial interval is sampled too, as PAPI's stop() does).

Power is constant within a phase, so the ticks of one phase are not walked
one by one: :func:`tick_split` finds how many full ticks and what partial
tail the polling loop would take, and the RAPL zones integrate them in
closed form.  Counters, clock and joules are bit-identical to sampling tick
by tick; the per-tick :attr:`PapiPowercapMonitor.samples` are rebuilt from
the recorded phases only when someone reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.energy.rapl import STEP_CHUNK, SimulatedRapl, step_sequence
from repro.errors import ConfigurationError

__all__ = [
    "PapiPowercapMonitor",
    "PowerSample",
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


@dataclass(frozen=True)
class PowerSample:
    """One sampling tick: virtual time and per-zone counter snapshot."""

    time_s: float
    counters_uj: tuple[int, ...]


@dataclass(frozen=True)
class _Span:
    """One sampled phase: where it started and how the zones were loaded."""

    t0: float
    counters_uj: tuple[int, ...]
    ticks: int
    tail: float
    watts: tuple[float, ...]


@dataclass
class PapiPowercapMonitor:
    """Samples RAPL zones while workload phases advance the virtual clock."""

    rapl: SimulatedRapl
    sample_interval: float = 0.010  # 10 ms, a typical powercap polling rate
    #: Samples recorded since :meth:`start`, the start snapshot included.
    n_samples: int = field(default=0, init=False)
    _started: bool = field(default=False, init=False, repr=False)
    _start_counters: tuple[int, ...] | None = field(
        default=None, init=False, repr=False
    )
    _t_first: float = field(default=0.0, init=False, repr=False)
    _t_last: float = field(default=0.0, init=False, repr=False)
    _samples: list[PowerSample] = field(default_factory=list, init=False, repr=False)
    _spans: list[_Span] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        check_sample_interval(self.sample_interval)

    def start(self) -> None:
        """Snapshot counters and begin recording samples."""
        if self._started:
            raise ConfigurationError("monitor already started")
        self._started = True
        self._start_counters = tuple(self.rapl.read_uj())
        self._t_first = self._t_last = self.rapl.now
        self._samples = [PowerSample(self.rapl.now, self._start_counters)]
        self._spans = []
        self.n_samples = 1

    def run_phase(self, duration: float, active_cores: int, activity: float = 1.0) -> None:
        """Advance one workload phase, sampling at the configured interval."""
        if not self._started:
            raise ConfigurationError("monitor not started")
        ticks, tail = tick_split(duration, self.sample_interval)
        if not (ticks or tail):
            return
        t0, counters = self.rapl.now, tuple(self.rapl.read_uj())
        watts = self.rapl.advance(
            self.sample_interval, active_cores, activity, ticks=ticks, tail=tail
        )
        self._spans.append(_Span(t0, counters, ticks, tail, watts))
        self.n_samples += ticks + (tail > 0)
        self._t_last = self.rapl.now

    def stop(self) -> float:
        """Stop recording; returns total joules over the window (Eq. 6)."""
        if not self._started or self._start_counters is None:
            raise ConfigurationError("monitor not started")
        self._started = False
        end = tuple(self.rapl.read_uj())
        return self.rapl.total_joules_between(list(self._start_counters), list(end))

    @property
    def samples(self) -> list[PowerSample]:
        """Every tick's (time, counters) snapshot, the start snapshot first.

        Built from the recorded phases on first access, so measuring never
        pays for them.
        """
        for span in self._spans:
            self._samples.extend(self._span_samples(span))
        self._spans.clear()
        return self._samples

    def _span_samples(self, span: _Span) -> list[PowerSample]:
        """The samples the ticks of one phase took, one per tick."""
        dt = self.sample_interval
        times: list[float] = []
        for chunk in step_sequence(np.add, span.t0, dt, span.ticks):
            times.extend(chunk.tolist())
        if span.tail > 0:
            times.append((times[-1] if times else span.t0) + span.tail)
        columns = []
        for e0, w, zone in zip(span.counters_uj, span.watts, self.rapl.zones):
            col = [zone.counter_after(e0, w * dt, j) for j in range(1, span.ticks + 1)]
            if span.tail > 0:
                full = zone.counter_after(e0, w * dt, span.ticks)
                col.append(zone.counter_after(full, w * span.tail))
            columns.append(col)
        return [PowerSample(t, c) for t, c in zip(times, zip(*columns))]

    @property
    def elapsed(self) -> float:
        """Seconds covered by the recorded samples."""
        return self._t_last - self._t_first
