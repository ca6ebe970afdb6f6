"""Package power model: watts as a function of active cores.

RAPL reports per-package (per-socket) power.  The model is the standard
idle + dynamic decomposition used by the energy-modeling literature the
paper cites (O'Brien et al., Dayarathna et al.):

    P_socket = idle_w + (tdp_w - idle_w) * (active/cores_per_socket)^alpha

with ``alpha < 1`` capturing the sublinear growth of dynamic power with core
count (shared uncore, frequency/turbo effects).  Cores fill sockets in order,
so a serial job burns one socket's single-core dynamic power plus *every*
socket's idle power — the reason wide nodes are expensive for serial
compression (Fig. 7's 4-socket 8260M row).

An ``activity`` factor scales dynamic power for phases that do not saturate
the core (e.g. I/O waits in Section VI's write experiments).

DVFS: an optional ``freq_ghz`` (model-level default or per-call override)
scales the *dynamic* term by ``(f / fnom)^vf_gamma`` — voltage-scaled
dynamic power, gamma ≈ 2.4 from :class:`~repro.energy.cpus.CPUSpec` — while
idle/uncore power is frequency-insensitive.  With no frequency given (or at
``f == fnom`` exactly) the model is bit-identical to the pre-DVFS one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.cpus import CPUSpec
from repro.errors import ConfigurationError

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Maps (cpu, active cores, activity) to per-package and node power."""

    cpu: CPUSpec
    alpha: float = 0.85
    freq_ghz: float | None = None  # None = nominal frequency (no scaling)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if self.freq_ghz is not None:
            self.cpu.validate_freq(self.freq_ghz)

    def freq_scale(self, freq_ghz: float | None = None) -> float:
        """Dynamic-power multiplier ``(f / fnom)^vf_gamma`` (exactly 1.0 at
        nominal, so unscaled paths stay bit-identical)."""
        f = self.freq_ghz if freq_ghz is None else freq_ghz
        if f is None or f == self.cpu.fnom_ghz:
            return 1.0
        f = self.cpu.validate_freq(f)
        return (f / self.cpu.fnom_ghz) ** self.cpu.vf_gamma

    def package_power(
        self,
        package: int,
        active_cores: int,
        activity: float = 1.0,
        freq_ghz: float | None = None,
    ) -> float:
        """Power (W) of one package given node-wide ``active_cores``.

        Active cores fill package 0 first, then 1, etc.  ``activity`` in
        [0, 1] scales the dynamic term only, as does the DVFS ``freq_scale``
        (idle power does not move with frequency).
        """
        cps = self.cpu.cores_per_socket
        if not 0 <= package < self.cpu.sockets:
            raise ConfigurationError(
                f"package {package} out of range for {self.cpu.name}"
            )
        if active_cores < 0 or active_cores > self.cpu.cores:
            raise ConfigurationError(
                f"active_cores {active_cores} out of range for {self.cpu.name}"
            )
        if not 0.0 <= activity <= 1.0:
            raise ConfigurationError("activity must be in [0, 1]")
        on_this = min(max(active_cores - package * cps, 0), cps)
        util = on_this / cps
        dynamic = (self.cpu.tdp_w - self.cpu.idle_w) * (util**self.alpha)
        scale = self.freq_scale(freq_ghz)
        if scale != 1.0:
            dynamic *= scale
        return self.cpu.idle_w + activity * dynamic

    def node_power(
        self,
        active_cores: int,
        activity: float = 1.0,
        freq_ghz: float | None = None,
    ) -> float:
        """Total node power: sum of all package powers (paper Eq. 6)."""
        return sum(
            self.package_power(p, active_cores, activity, freq_ghz=freq_ghz)
            for p in range(self.cpu.sockets)
        )

    def node_idle_power(self) -> float:
        """Node power with zero active cores (frequency-insensitive)."""
        return self.cpu.idle_w * self.cpu.sockets
