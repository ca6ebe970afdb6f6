"""Checkpoint/restart mathematics: Young/Daly intervals and closed forms.

The paper prices a *single* compressed write; the dominant HPC scenario is
periodic checkpointing under failures.  Compression shrinks the checkpoint
cost ``δ``, which shifts the Young/Daly-optimal interval ``τ``, which
changes the number of checkpoints, the rework lost per failure, and
therefore the total wasted time and energy — the compress-or-not question
at whole-application scale.

The model (all times in seconds):

- the application needs ``work_s`` of failure-free compute, cut into
  segments of at most ``interval_s``; each segment ends with a checkpoint
  write of duration ``ckpt_s`` (its cost and energy come from the existing
  compressed-I/O write paths);
- failures arrive as a Poisson process with the system MTTF ``M``
  (:mod:`repro.workloads.failures`); a failure anywhere in the vulnerable
  window — compute, checkpoint write, or restart — loses all work since the
  last *committed* checkpoint;
- every failure costs ``downtime_s`` of dead node time (idle power only),
  then a restart of duration ``restart_s`` (fetch + decompress through the
  read path; re-reading the input deck before the first checkpoint is
  charged the same), then rework from the last commit.

Closed forms below follow the standard renewal argument (Daly's exponential
model).  For a segment whose vulnerable window is ``v = w + δ``:

- expected time: first attempt either succeeds after ``v`` or fails after
  ``M(1 - e^{-v/M})`` expected seconds; each subsequent attempt must clear
  ``R + v`` contiguous uptime, costing ``(M + D)(e^{(R+v)/M} - 1)``
  expected seconds including downtime;
- expected failures: ``(1 - e^{-v/M}) e^{(R+v)/M}``.

The first-order *energy* expansion charges, per expected failure, half of
the segment's energy (the average rework), one full restart, and downtime
at node idle power — documented tolerance versus the lifecycle simulation
is asserted in ``tests/test_workloads.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "CheckpointSpec",
    "young_interval",
    "daly_interval",
    "resolve_interval",
    "segment_works",
    "expected_makespan",
    "expected_failures",
    "expected_energy",
]


def young_interval(ckpt_s: float, mttf_s: float) -> float:
    """Young's first-order optimum ``τ = sqrt(2 δ M)``."""
    if ckpt_s < 0 or mttf_s <= 0:
        raise ConfigurationError("ckpt_s must be >= 0 and mttf_s > 0")
    if math.isinf(mttf_s):
        return math.inf
    return math.sqrt(2.0 * ckpt_s * mttf_s)


def daly_interval(ckpt_s: float, mttf_s: float, restart_s: float = 0.0) -> float:
    """Daly's refined optimum ``τ = sqrt(2 δ (M + R)) - δ``.

    Falls back to ``δ`` when the formula would go lower (the perturbation
    solution is only valid for ``δ ≪ M``); infinite MTTF yields an infinite
    interval — checkpoint once, at the end.
    """
    if restart_s < 0:
        raise ConfigurationError("restart_s must be >= 0")
    if math.isinf(mttf_s):
        return math.inf
    tau = math.sqrt(2.0 * ckpt_s * (mttf_s + restart_s)) - ckpt_s
    return max(tau, ckpt_s) if ckpt_s > 0 else young_interval(ckpt_s, mttf_s)


def resolve_interval(
    interval: float | str, ckpt_s: float, mttf_s: float, restart_s: float = 0.0
) -> float:
    """Map an interval policy to seconds.

    ``"daly"`` / ``"young"`` use the closed-form optima; a number is an
    explicit interval in seconds (must be positive).
    """
    if isinstance(interval, str):
        if interval == "daly":
            return daly_interval(ckpt_s, mttf_s, restart_s)
        if interval == "young":
            return young_interval(ckpt_s, mttf_s)
        raise ConfigurationError(
            f"unknown interval policy {interval!r}; expected 'daly', 'young', "
            "or a number of seconds"
        )
    value = float(interval)
    if not value > 0:
        raise ConfigurationError("explicit checkpoint interval must be positive")
    return value


def segment_works(work_s: float, interval_s: float) -> list[float]:
    """Split total work into compute segments of at most ``interval_s``.

    Every segment — including the final, possibly short one — ends with a
    checkpoint write: the last checkpoint *is* the application's output
    dump, which is what reduces a one-segment run to the paper's single
    compressed write.
    """
    if not work_s > 0:
        raise ConfigurationError("work_s must be positive")
    if not interval_s > 0:
        raise ConfigurationError("interval_s must be positive")
    if math.isinf(interval_s):
        return [work_s]
    n = max(1, math.ceil(work_s / interval_s - 1e-12))
    works = [interval_s] * (n - 1)
    works.append(work_s - interval_s * (n - 1))
    return works


@dataclass(frozen=True)
class CheckpointSpec:
    """One checkpointed application lifetime, in model scalars.

    The I/O scalars (``ckpt_s``, ``restart_s`` and their energies) are
    *inputs* here — the testbed derives them from its compressed write and
    read paths, so this module stays a pure math layer.
    """

    work_s: float
    interval_s: float  # resolved seconds (inf = single trailing checkpoint)
    ckpt_s: float
    restart_s: float
    mttf_s: float  # system MTTF (inf = failure-free)
    downtime_s: float = 0.0

    def __post_init__(self):
        # interval_s and mttf_s may be inf (one trailing checkpoint, no
        # failures); every cost must be a real number of seconds.
        for name in ("work_s", "ckpt_s", "restart_s", "downtime_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if not self.work_s > 0:
            raise ConfigurationError("work_s must be positive")
        if not self.interval_s > 0:
            raise ConfigurationError("interval_s must be positive")
        if self.ckpt_s < 0 or self.restart_s < 0 or self.downtime_s < 0:
            raise ConfigurationError("ckpt_s/restart_s/downtime_s must be >= 0")
        if not self.mttf_s > 0:
            raise ConfigurationError("mttf_s must be positive")

    @property
    def segments(self) -> list[float]:
        return segment_works(self.work_s, self.interval_s)

    @property
    def n_checkpoints(self) -> int:
        return len(self.segments)

    @property
    def failure_free_makespan_s(self) -> float:
        return self.work_s + self.n_checkpoints * self.ckpt_s


def _segment_expectations(spec: CheckpointSpec, w: float) -> tuple[float, float]:
    """(expected seconds, expected failures) to commit one segment."""
    v = w + spec.ckpt_s
    if math.isinf(spec.mttf_s):
        return v, 0.0
    m = spec.mttf_s
    p_fail = -math.expm1(-v / m)  # 1 - e^{-v/M}, stable for small v/M
    retries = math.expm1((spec.restart_s + v) / m)  # e^{(R+v)/M} - 1
    t = m * p_fail + p_fail * (spec.downtime_s + (m + spec.downtime_s) * retries)
    failures = p_fail * (1.0 + retries)
    return t, failures


def expected_makespan(spec: CheckpointSpec) -> float:
    """Expected wall time of the whole lifetime (exact renewal model)."""
    return sum(_segment_expectations(spec, w)[0] for w in spec.segments)


def expected_failures(spec: CheckpointSpec) -> float:
    """Expected failure count over the whole lifetime."""
    return sum(_segment_expectations(spec, w)[1] for w in spec.segments)


def expected_energy(
    spec: CheckpointSpec,
    compute_power_w: float,
    ckpt_energy_j: float,
    restart_energy_j: float,
    idle_power_w: float,
) -> float:
    """First-order expected energy of the whole lifetime.

    Per segment: the useful compute and its committed checkpoint, plus — per
    expected failure — half the segment's energy as average rework, one full
    restart, and ``downtime_s`` at node idle power.  This is the energy
    analogue of Daly's first-order time expansion; the lifecycle simulator
    is the higher-fidelity reference it is validated against.
    """
    total = 0.0
    for w in spec.segments:
        seg_energy = compute_power_w * w + ckpt_energy_j
        _, failures = _segment_expectations(spec, w)
        total += seg_energy + failures * (
            0.5 * seg_energy + restart_energy_j + idle_power_w * spec.downtime_s
        )
    return total
