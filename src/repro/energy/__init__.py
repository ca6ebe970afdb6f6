"""Simulated energy-measurement stack (RAPL + PAPI) and the virtual testbed.

The paper measures CPU package energy through Intel RAPL counters sampled via
PAPI's powercap component (Section IV-B), on the three nodes of Table I.
None of that hardware exists here, so this subpackage simulates the whole
stack with the same *interfaces and mechanisms*:

- :mod:`repro.energy.cpus` — the Table I CPU catalogue;
- :mod:`repro.energy.power` — package power as a function of active cores;
- :mod:`repro.energy.rapl` — powercap-style wrapping energy counters,
  integrated over a virtual clock in closed form (``integrate_phase``,
  ``phase_energies``);
- :mod:`repro.energy.papi` — the PAPI polling loop's fixed-interval ticks
  (``tick_split``, ``tick_splits``), reproducing the paper's discrete sum
  E = sum P(t_i) dt;
- :mod:`repro.energy.throughput` — the calibrated codec performance model
  that supplies phase durations (see DESIGN.md for calibration constants);
- :mod:`repro.energy.measurement` — the user-facing
  :class:`~repro.energy.measurement.EnergyMeter`.
"""

from repro.energy.cpus import CPUS, CPUSpec, get_cpu
from repro.energy.measurement import EnergyMeter, EnergyReport, Phase
from repro.energy.power import PowerModel
from repro.energy.throughput import ThroughputModel

__all__ = [
    "CPUS",
    "CPUSpec",
    "get_cpu",
    "EnergyMeter",
    "EnergyReport",
    "Phase",
    "PowerModel",
    "ThroughputModel",
]
