"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to discriminate the failure domain (compression, I/O, simulation,
configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CompressionError(ReproError):
    """A compressor failed to produce or parse a compressed stream."""


class DecompressionError(CompressionError):
    """A compressed stream is malformed, truncated, or of the wrong codec."""


class ErrorBoundViolation(CompressionError):
    """Reconstruction violated the requested error bound.

    This is raised by verification helpers, never silently ignored: the
    value-range relative bound is the contract every EBLC in this package
    guarantees (paper Eq. 1 with footnote-1 semantics).
    """

    def __init__(self, max_error: float, bound: float, message: str | None = None):
        self.max_error = float(max_error)
        self.bound = float(bound)
        super().__init__(
            message
            or f"error bound violated: max abs error {max_error:.6g} > bound {bound:.6g}"
        )


class IOModelError(ReproError):
    """Invalid I/O-stack configuration or malformed container file."""


class SimulationError(ReproError):
    """The discrete-event cluster simulation reached an inconsistent state."""


class ConfigurationError(ReproError):
    """An experiment or model was configured with invalid parameters."""


class FrequencyRangeError(ConfigurationError, ValueError):
    """A DVFS clock lies outside a CPU's frequency envelope.

    Also a :class:`ValueError`, which is what the envelope check raised
    before it joined this hierarchy.
    """


class BenchmarkRegression(ReproError):
    """A kernel benchmark ran slower than the allowed regression budget.

    Carries the offending delta records (kernel, dataset, old/new seconds,
    speedup) so CI logs show exactly which kernels regressed and by how much.
    """

    def __init__(self, max_regression_pct: float, offenders: list[dict]):
        self.max_regression_pct = float(max_regression_pct)
        self.offenders = list(offenders)
        worst = min(offenders, key=lambda d: d["speedup"])
        super().__init__(
            f"{len(offenders)} kernel(s) regressed more than "
            f"{max_regression_pct:g}% (worst: {worst['kernel']}/{worst['dataset']} "
            f"at {1 / worst['speedup']:.2f}x slower)"
        )
