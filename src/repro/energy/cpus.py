"""CPU catalogue reproducing Table I of the paper.

Each entry carries the published shape of the node (model, cores, TDP) plus
the calibration parameters of the simulation: per-socket idle power,
per-core relative speed, and socket count.  Calibration targets the paper's
qualitative findings:

- the Sapphire Rapids MAX 9480 is the fastest per core but draws the most
  package power (its serial energies sit between the other two in Fig. 7);
- the Skylake 8160 node shows the lowest absolute serial energies;
- the Cascade Lake 8260M node (4-socket Extreme Memory platform) is the
  slowest per core and idles the most silicon, giving the largest energies
  (Fig. 7's bottom row).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrequencyRangeError

__all__ = ["CPUSpec", "CPUS", "get_cpu", "PAPER_CPUS"]


@dataclass(frozen=True)
class CPUSpec:
    """A node's CPU configuration and power/performance calibration.

    The DVFS envelope (``fmin_ghz``/``fnom_ghz``/``fmax_ghz``) follows the
    published base and max-turbo clocks; ``speed`` and the power calibration
    describe the node *at* ``fnom_ghz``, so every pre-DVFS code path — which
    never passes a frequency — is implicitly evaluated at nominal and is
    unchanged by these fields.  ``vf_gamma`` is the voltage-scaled dynamic
    power exponent: P_dyn ∝ f·V² with V roughly linear in f over the DVFS
    range gives an effective exponent of ~2.4 (Zordan et al.'s
    processing-energy-per-cycle axis, made explicit).
    """

    name: str
    model: str
    codename: str
    system: str
    cores: int  # total usable cores on the node
    sockets: int
    tdp_w: float  # per-socket TDP as Table I lists it
    idle_w: float  # per-socket idle (uncore + fabric) power
    speed: float  # per-core throughput relative to the Skylake 8160
    ram: str
    year: int
    fmin_ghz: float = 1.0  # lowest DVFS operating point
    fnom_ghz: float = 2.0  # base clock: the calibration point of `speed`
    fmax_ghz: float = 3.0  # max turbo
    vf_gamma: float = 2.4  # dynamic-power exponent under voltage scaling

    def __post_init__(self):
        if not 0.0 < self.fmin_ghz <= self.fnom_ghz <= self.fmax_ghz:
            raise ValueError(
                f"{self.name}: need 0 < fmin <= fnom <= fmax, got "
                f"({self.fmin_ghz}, {self.fnom_ghz}, {self.fmax_ghz})"
            )
        if self.vf_gamma < 1.0:
            raise ValueError("vf_gamma must be >= 1 (dynamic power grows with f)")

    @property
    def cores_per_socket(self) -> int:
        return self.cores // self.sockets

    def validate_freq(self, freq_ghz: float) -> float:
        """Check a frequency lies in the DVFS envelope; returns it as float."""
        f = float(freq_ghz)
        if not self.fmin_ghz <= f <= self.fmax_ghz:
            raise FrequencyRangeError(
                f"{self.name}: freq {f} GHz outside DVFS range "
                f"[{self.fmin_ghz}, {self.fmax_ghz}]"
            )
        return f

    def freq_ladder(self) -> tuple[float, ...]:
        """A canonical 5-step DVFS ladder: min, nominal, max plus midpoints."""
        steps = {
            self.fmin_ghz,
            0.5 * (self.fmin_ghz + self.fnom_ghz),
            self.fnom_ghz,
            0.5 * (self.fnom_ghz + self.fmax_ghz),
            self.fmax_ghz,
        }
        return tuple(sorted(steps))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.model} ({self.cores} cores, {self.tdp_w:.0f} W TDP)"


CPUS: dict[str, CPUSpec] = {
    "max9480": CPUSpec(
        name="max9480",
        model="Intel Xeon CPU MAX 9480",
        codename="Sapphire Rapids",
        system="TACC Stampede3",
        cores=112,
        sockets=2,
        tdp_w=350.0,
        idle_w=130.0,  # HBM2e stacks idle hot
        speed=1.60,
        ram="128GB HBM2e",
        year=2023,
        fmin_ghz=0.8,
        fnom_ghz=1.9,
        fmax_ghz=3.5,
    ),
    "plat8160": CPUSpec(
        name="plat8160",
        model="Intel Xeon Platinum 8160",
        codename="Skylake",
        system="TACC Stampede3",
        cores=48,
        sockets=2,
        tdp_w=270.0,
        idle_w=55.0,
        speed=1.0,
        ram="192GB DDR4",
        year=2017,
        fmin_ghz=1.0,
        fnom_ghz=2.1,
        fmax_ghz=3.7,
    ),
    "plat8260m": CPUSpec(
        name="plat8260m",
        model="Intel Xeon Platinum 8260M",
        codename="Cascade Lake",
        system="PSC Bridges2 (Extreme Memory)",
        cores=96,
        sockets=4,
        tdp_w=165.0,
        idle_w=58.0,
        speed=0.62,
        ram="4TB DDR4",
        year=2019,
        fmin_ghz=1.0,
        fnom_ghz=2.4,
        fmax_ghz=3.9,
    ),
}

#: Paper presentation order (Fig. 7/10 row order).
PAPER_CPUS = ("max9480", "plat8160", "plat8260m")


def get_cpu(name: str) -> CPUSpec:
    """Look up a CPU by short name (``max9480``/``plat8160``/``plat8260m``)."""
    try:
        return CPUS[name]
    except KeyError:
        raise KeyError(f"unknown CPU {name!r}; available: {sorted(CPUS)}") from None
