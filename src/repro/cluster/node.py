"""Node model: a CPU spec plus its energy meter and phase bookkeeping.

A campaign describes each node's activity as a timeline of (interval,
active-cores, activity) segments; :class:`NodeModel` turns that timeline
into joules through the RAPL/PAPI sampling rules
(:func:`~repro.energy.papi.tick_splits` and
:func:`~repro.energy.rapl.phase_energies`, the kernel the cluster solve
meters all its nodes with), splitting the total into labelled components
(compression vs write) for Fig. 12's stacked bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.energy.cpus import CPUSpec
from repro.energy.measurement import Phase
from repro.energy.papi import check_sample_interval, tick_splits
from repro.energy.power import PowerModel
from repro.energy.rapl import clock_after, phase_energies
from repro.errors import ConfigurationError

__all__ = ["NodeModel", "NodeEnergy"]


@dataclass(frozen=True)
class NodeEnergy:
    """Per-node energy split by phase label."""

    by_label: dict
    runtime_s: float

    @property
    def total_j(self) -> float:
        return sum(self.by_label.values())


@dataclass
class NodeModel:
    """One compute node in a campaign."""

    cpu: CPUSpec
    name: str = "node"
    sample_interval: float = 0.010
    freq_ghz: float | None = None  # DVFS pin; None = nominal clock
    _phases: list[Phase] = field(default_factory=list)

    def add_phase(
        self, duration_s: float, active_cores: int, activity: float, label: str
    ) -> None:
        """Append a constant-load segment to the node's timeline."""
        if not (math.isfinite(duration_s) and duration_s >= 0):
            raise ConfigurationError(
                f"phase duration must be finite and non-negative, got {duration_s!r}"
            )
        if duration_s == 0:
            return
        self._phases.append(
            Phase(duration_s, min(active_cores, self.cpu.cores), activity, label)
        )

    def measure(self) -> NodeEnergy:
        """Integrate the timeline into labelled joules, each phase metered
        on its own window from zeroed counters (no wrap is lost)."""
        interval = self.sample_interval
        check_sample_interval(interval)
        ticks, tails = tick_splits([ph.duration_s for ph in self._phases], interval)
        joules = phase_energies(
            PowerModel(self.cpu, freq_ghz=self.freq_ghz),
            interval,
            [ph.active_cores for ph in self._phases],
            [ph.activity for ph in self._phases],
            ticks,
            tails,
        )
        by_label: dict[str, float] = {}
        runtime = 0.0
        for ph, j, t, tail in zip(
            self._phases, joules.tolist(), ticks.tolist(), tails.tolist()
        ):
            by_label[ph.label] = by_label.get(ph.label, 0.0) + j
            runtime += clock_after(0.0, interval, t, tail)
        return NodeEnergy(by_label=by_label, runtime_s=runtime)
