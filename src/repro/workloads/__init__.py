"""repro.workloads — failure-aware application-lifetime simulation.

The paper prices one compressed write or read; this layer prices a whole
checkpointed application lifetime under failures, where compression's
effect on the checkpoint cost shifts the Young/Daly-optimal interval and
with it the total wasted work and energy:

- :mod:`repro.workloads.failures` — per-node exponential MTTF with explicit
  seeds, merged into the system-level failure process;
- :mod:`repro.workloads.checkpoint` — :class:`CheckpointSpec`, the
  Young/Daly closed-form optimal intervals, and expected-makespan/energy
  models;
- :mod:`repro.workloads.lifecycle` — the lifetime simulator: compute
  segments, checkpoint writes, failure interrupts, downtime, restart and
  rework as one labelled :class:`~repro.energy.measurement.Interval`
  timeline.

``Testbed.checkpoint_point`` (and the ``checkpoint`` sweep kind, the
``repro advise --checkpoint`` advisor, and cluster tenants with an MTTF)
build on these pieces; see ``docs/user-guide/checkpointing.md``.
"""

from repro.workloads.checkpoint import (
    CheckpointSpec,
    daly_interval,
    expected_energy,
    expected_failures,
    expected_makespan,
    resolve_interval,
    segment_works,
    young_interval,
)
from repro.workloads.failures import FailureModel, FailureTimeline
from repro.workloads.lifecycle import (
    LifecycleStats,
    compact_intervals,
    run_lifecycle,
)

__all__ = [
    "CheckpointSpec",
    "FailureModel",
    "FailureTimeline",
    "LifecycleStats",
    "compact_intervals",
    "daly_interval",
    "expected_energy",
    "expected_failures",
    "expected_makespan",
    "resolve_interval",
    "run_lifecycle",
    "segment_works",
    "young_interval",
]
