"""Front-end energy meter: run workload phases through RAPL/PAPI, get joules.

:class:`EnergyMeter` is what the experiment drivers use: describe a workload
as :class:`Phase` segments (duration, active cores, CPU activity), and the
meter samples them as the PAPI powercap polling loop samples RAPL counters,
returning an :class:`EnergyReport` with the discrete-sampled energy the
paper reports.

Each phase goes through :func:`~repro.energy.papi.tick_split` and
:func:`~repro.energy.rapl.integrate_phase` on counters starting at zero, so
every report is bit-identical to sampling the window one tick at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.cpus import CPUSpec
from repro.energy.papi import check_sample_interval, tick_split
from repro.energy.power import PowerModel
from repro.energy.rapl import DEFAULT_MAX_ENERGY_RANGE_UJ, integrate_phase
from repro.energy.throughput import ThroughputModel
from repro.errors import ConfigurationError

__all__ = [
    "Phase", "Interval", "compose_phases", "EnergyReport", "EnergyMeter",
    "compression_energy",
]


@dataclass(frozen=True)
class Phase:
    """One constant-load workload segment."""

    duration_s: float
    active_cores: int
    activity: float = 1.0
    label: str = ""


@dataclass(frozen=True)
class Interval:
    """A load segment on an absolute timeline, for overlapped stages.

    Unlike :class:`Phase` (relative, strictly sequential), intervals carry
    absolute start/end times so concurrent stages — a compress stream and
    the transfer draining behind it — can be described independently and
    then overlaid with :func:`compose_phases`.
    """

    start_s: float
    end_s: float
    active_cores: int = 1
    activity: float = 1.0
    label: str = ""

    def __post_init__(self):
        if self.end_s < self.start_s - 1e-12:
            raise ConfigurationError("interval must not end before it starts")


def compose_phases(
    intervals: list[Interval] | tuple[Interval, ...],
    max_cores: int | None = None,
) -> list[Phase]:
    """Overlay absolute-time intervals into a sequential :class:`Phase` list.

    The timeline is cut at every interval boundary; within each elementary
    segment the covering intervals are combined by summing their core counts
    (clamped to ``max_cores``) and carrying the core-weighted mean activity,
    with the total core·activity load preserved under clamping (activity
    saturates at 1.0).  Gaps between intervals become zero-core idle phases,
    so the composed timeline spans from the earliest start to the latest end
    and its measured runtime equals the overlapped makespan.

    Each emitted phase takes the label of its highest-load interval, which
    keeps labelled accounting meaningful for mostly-disjoint stages.
    """
    ivs = [iv for iv in intervals if iv.end_s - iv.start_s > 1e-12]
    if not ivs:
        return []
    cuts: list[float] = []
    for iv in ivs:
        cuts.append(float(iv.start_s))
        cuts.append(float(iv.end_s))
    cuts.sort()
    # Merge boundaries closer than float noise so no phantom segments appear.
    edges = [cuts[0]]
    for c in cuts[1:]:
        if c - edges[-1] > 1e-12:
            edges.append(c)
    phases: list[Phase] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        covering = [iv for iv in ivs if iv.start_s <= mid < iv.end_s]
        if not covering:
            phases.append(Phase(hi - lo, 0, 0.0, "idle"))
            continue
        cores = sum(iv.active_cores for iv in covering)
        load = sum(iv.active_cores * iv.activity for iv in covering)
        if max_cores is not None:
            cores = min(cores, max_cores)
        activity = min(1.0, load / cores) if cores > 0 else 0.0
        label = max(covering, key=lambda iv: iv.active_cores * iv.activity).label
        phases.append(Phase(hi - lo, cores, activity, label))
    return phases


@dataclass(frozen=True)
class EnergyReport:
    """Measured (virtual) runtime, energy, and derived power for a workload."""

    runtime_s: float
    energy_j: float
    zone_energies_j: tuple[float, ...]
    n_samples: int

    @property
    def avg_power_w(self) -> float:
        """Mean node power over the workload."""
        return self.energy_j / self.runtime_s if self.runtime_s > 0 else 0.0

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        """Concatenate two measurement windows (e.g. compress + write)."""
        if len(self.zone_energies_j) != len(other.zone_energies_j):
            # zip() would silently truncate the longer tuple, corrupting the
            # per-zone split; mismatched zone counts mean the reports came
            # from different node configurations and cannot be concatenated.
            raise ConfigurationError(
                "cannot add EnergyReports with different zone counts "
                f"({len(self.zone_energies_j)} vs {len(other.zone_energies_j)})"
            )
        zones = tuple(
            a + b for a, b in zip(self.zone_energies_j, other.zone_energies_j)
        )
        return EnergyReport(
            runtime_s=self.runtime_s + other.runtime_s,
            energy_j=self.energy_j + other.energy_j,
            zone_energies_j=zones,
            n_samples=self.n_samples + other.n_samples,
        )


class EnergyMeter:
    """Samples phases as PAPI samples a RAPL node and reports joules."""

    def __init__(
        self,
        cpu: CPUSpec,
        sample_interval: float = 0.010,
        freq_ghz: float | None = None,
    ):
        check_sample_interval(sample_interval)
        self.cpu = cpu
        self.sample_interval = sample_interval
        self.freq_ghz = freq_ghz
        self.power_model = PowerModel(cpu, freq_ghz=freq_ghz)
        self._ranges = (DEFAULT_MAX_ENERGY_RANGE_UJ,) * cpu.sockets

    def measure(self, phases: list[Phase]) -> EnergyReport:
        """Sample the phases over one window from zeroed counters."""
        interval = self.sample_interval
        counters = [0] * self.cpu.sockets
        now = 0.0
        n_samples = 1  # the start snapshot
        for ph in phases:
            ticks, tail = tick_split(ph.duration_s, interval)
            if ticks or tail:
                _, now = integrate_phase(
                    self.power_model,
                    counters,
                    self._ranges,
                    now,
                    interval,
                    ph.active_cores,
                    ph.activity,
                    ticks,
                    tail,
                )
                n_samples += ticks + (tail > 0)
        # Counters start at zero, so each reading is its zone's wrap-aware
        # delta over the window (Eq. 6 per zone); a window past the wrap
        # range loses whole wraps, as one hardware delta does.
        zones = tuple(reading / 1e6 for reading in counters)
        return EnergyReport(
            runtime_s=now,
            energy_j=sum(zones),
            zone_energies_j=zones,
            n_samples=n_samples,
        )

    def measure_compute(
        self, duration_s: float, threads: int, activity: float = 1.0
    ) -> EnergyReport:
        """Single compute phase using ``threads`` cores."""
        return self.measure(
            [Phase(duration_s, min(threads, self.cpu.cores), activity, "compute")]
        )

    #: Upper bound on one wrap-safe measurement window: 100 s at a 500 W
    #: socket is 50 kJ, a 5x margin under the ~262 kJ RAPL wrap range.
    MAX_WINDOW_S = 100.0

    def measure_split(self, phases: list[Phase]) -> EnergyReport:
        """Wrap-safe measurement for arbitrarily long workloads.

        :meth:`measure` reads each zone counter once before and once after
        the window, so a workload depositing more than the RAPL wrap range
        (~262 kJ per zone — about six node-minutes at TDP) would silently
        lose a whole wrap in the single delta.  Application *lifetimes*
        (checkpointed runs spanning hours) need this variant: every phase is
        cut into sub-wrap windows, each measured on its own node, and the
        reports are summed.  (:func:`~repro.cluster.costs.measure_node_phases`
        needs no cut: it reads every tick of a phase, so it keeps every wrap.)
        """
        if not all(math.isfinite(ph.duration_s) for ph in phases):
            raise ConfigurationError("phase durations must be finite")
        total: EnergyReport | None = None
        for ph in phases:
            remaining = ph.duration_s
            while remaining > 1e-12:
                d = min(remaining, self.MAX_WINDOW_S)
                rep = self.measure([Phase(d, ph.active_cores, ph.activity, ph.label)])
                total = rep if total is None else total + rep
                remaining -= d
        if total is None:
            return EnergyReport(0.0, 0.0, (0.0,) * self.cpu.sockets, 0)
        return total


def compression_energy(
    codec: str,
    nbytes: int,
    rel_bound: float,
    cpu: CPUSpec,
    threads: int = 1,
    throughput: ThroughputModel | None = None,
    sample_interval: float = 0.010,
) -> EnergyReport:
    """Modeled energy of compressing ``nbytes`` with ``codec`` on ``cpu``:
    the throughput model's runtime as one compute phase, metered every
    ``sample_interval`` seconds (the default model and step are a default
    :class:`~repro.core.experiments.Testbed`'s)."""
    t = (throughput or ThroughputModel()).runtime(
        codec, "compress", nbytes, rel_bound, cpu, threads=threads
    )
    return EnergyMeter(cpu, sample_interval=sample_interval).measure_compute(t, threads)
