"""Declarative sweep specifications and their grid-point expansion.

A :class:`SweepSpec` names *what* to evaluate — the (dataset, codec,
error-bound, CPU, I/O-library) axes of one paper artifact — without saying
*how*.  :meth:`SweepSpec.points` expands it into :class:`GridPoint` work
items in a deterministic order that matches the seed ``Testbed`` drivers
point for point, so the engine can fan the grid out over a pool, memoize
each point, and still return records in the order every figure expects.

The legal kinds, their validation, and their expansions all live in
:mod:`repro.runtime.registry` — one :class:`~repro.runtime.registry.
ExperimentKind` declaration per kind.  ``SweepSpec`` itself only owns the
axis fields and their normalisation; constructing a spec with an unknown
kind raises :class:`~repro.errors.ConfigurationError` naming every
registered kind, and a registered third-party kind sweeps through this
class unchanged.

Specs round-trip through JSON (``to_json``/``from_json``) so the same grid
can be committed next to a benchmark, shipped to a worker, or fed to
``repro sweep --spec grid.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.runtime import registry

__all__ = ["GridPoint", "SweepSpec", "SWEEP_KINDS"]

#: The builtin grid shapes (a frozen snapshot; plugins registered through
#: :func:`repro.runtime.registry.register` extend the live set, which is
#: always :func:`repro.runtime.registry.kind_names`).
SWEEP_KINDS = (
    "serial",
    "thread",
    "quality",
    "io",
    "read",
    "lossless",
    "pipeline",
    "dvfs",
    "checkpoint",
)


@dataclass(frozen=True)
class GridPoint:
    """One unit of sweep work: an evaluate operation plus its arguments.

    ``op`` names a :class:`~repro.core.experiments.Testbed` method
    (``roundtrip``, ``serial_point``, ``io_point``, ``read_point``) or a
    plugin entrypoint registered by an experiment kind; the kwargs are
    stored as a sorted tuple of pairs so equal points compare and hash
    equal regardless of keyword order.
    """

    op: str
    kwargs: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, op: str, **kwargs) -> "GridPoint":
        return cls(op=op, kwargs=tuple(sorted(kwargs.items())))

    def as_kwargs(self) -> dict:
        """The keyword arguments as a plain dict."""
        return dict(self.kwargs)


def _tuple(value, kind=None):
    """Coerce a list/tuple (JSON gives lists) to a tuple, mapping ``kind``."""
    if kind is None:
        return tuple(value)
    return tuple(kind(v) for v in value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over the paper's experiment axes.

    The defaults reproduce the full Figs. 5/7 serial grid; narrower specs
    are built by overriding axes.  Fields that a kind does not use are
    simply ignored by its expansion (e.g. ``io_libraries`` for a serial
    sweep), so one spec type covers every registered kind — each kind's
    :attr:`~repro.runtime.registry.ExperimentKind.spec_fields` names the
    axes it actually consumes.
    """

    kind: str = "serial"
    datasets: tuple[str, ...] = ("cesm", "hacc", "nyx", "s3d")
    codecs: tuple[str, ...] = ("sz2", "sz3", "zfp", "qoz", "szx")
    bounds: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    cpus: tuple[str, ...] = ("max9480",)
    io_libraries: tuple[str, ...] = ("hdf5", "netcdf")
    #: thread counts: ``threads[0]`` for serial grids, the full axis for
    #: the Fig. 10 ``thread`` kind.
    threads: tuple[int, ...] = (1,)
    #: the single bound used by the ``thread`` and ``lossless`` kinds.
    rel_bound: float = 1e-3
    #: Fig. 1 lossless baselines (``lossless`` kind only).
    lossless_codecs: tuple[str, ...] = ("zstd", "blosc", "fpzip", "fpc")
    #: include the uncompressed write/read baseline (``io``/``read`` kinds).
    include_baseline: bool = True
    #: drop codec/ndim combos the paper's toolchain could not run
    #: (``thread`` kind; see :mod:`repro.compressors.capabilities`).
    paper_fidelity: bool = False
    #: chunk count and stage overlap for the ``pipeline`` kind.
    n_chunks: int = 8
    overlap: bool = True
    #: DVFS frequency axis in GHz (``dvfs`` kind); empty = each CPU's
    #: canonical :meth:`~repro.energy.cpus.CPUSpec.freq_ladder`.
    freqs: tuple[float, ...] = ()
    #: per-node MTTF axis in seconds (``checkpoint`` kind); ``inf`` is the
    #: failure-free control that reduces to the plain write paths.
    mttfs: tuple[float, ...] = (float("inf"), 86400.0, 21600.0)
    #: checkpoint-kind scenario: failure-free compute seconds per lifetime,
    #: interval policy ("daly"/"young" or explicit seconds), allocation
    #: width, failure-history seed, and per-failure node downtime.
    work_s: float = 3600.0
    interval: str | float = "daly"
    n_nodes: int = 1
    seed: int = 0
    downtime_s: float = 60.0
    #: compression-spec mini-language string (``"lossy,sz3,rel,1e-3"``,
    #: ``"auto,rel,1e-3"``, ...; see :mod:`repro.dataset.spec`).  Empty means
    #: the codec/bound axes are given directly; non-empty derives them from
    #: the spec, narrowing the grid without changing point identities.
    compression: str = ""
    #: cluster-kind scenario string (machine size + tenant jobs; see
    #: :mod:`repro.cluster.scheduler` and docs/user-guide/cluster.md).
    #: Normalised to canonical form by the cluster kind's validator.
    scenario: str = ""

    def __post_init__(self):
        experiment = registry.get_kind(self.kind)  # unknown kind raises here
        # JSON and CLI hand us lists; normalise every axis to a tuple so
        # specs stay hashable and compare by value.
        object.__setattr__(self, "datasets", _tuple(self.datasets, str))
        object.__setattr__(self, "codecs", _tuple(self.codecs, str))
        object.__setattr__(self, "bounds", _tuple(self.bounds, float))
        object.__setattr__(self, "cpus", _tuple(self.cpus, str))
        object.__setattr__(self, "io_libraries", _tuple(self.io_libraries, str))
        object.__setattr__(self, "threads", _tuple(self.threads, int))
        object.__setattr__(self, "lossless_codecs", _tuple(self.lossless_codecs, str))
        object.__setattr__(self, "rel_bound", float(self.rel_bound))
        object.__setattr__(self, "n_chunks", int(self.n_chunks))
        object.__setattr__(self, "overlap", bool(self.overlap))
        object.__setattr__(self, "freqs", _tuple(self.freqs, float))
        object.__setattr__(self, "mttfs", _tuple(self.mttfs, float))
        object.__setattr__(self, "work_s", float(self.work_s))
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "downtime_s", float(self.downtime_s))
        object.__setattr__(self, "scenario", str(self.scenario))
        if not isinstance(self.interval, str):
            object.__setattr__(self, "interval", float(self.interval))
        if not self.threads:
            raise ConfigurationError("threads axis must not be empty")
        if self.n_chunks < 1:
            raise ConfigurationError("n_chunks must be >= 1")
        if self.compression:
            self._apply_compression()
        if experiment.validate is not None:
            # Kind-specific checks (e.g. the checkpoint scenario) run after
            # normalisation so they see the canonical field types.
            experiment.validate(self)

    def _apply_compression(self):
        """Normalise ``compression`` to canonical form and derive the
        codec/bound axes from it for the builtin grid kinds.

        The spec only ever *narrows or filters* the existing axes, so every
        grid point a compression-driven sweep emits is one the hand-set
        axes could already emit — content-addressed store keys stay stable.
        The ``dataset`` kind (and any plugin naming ``compression`` in its
        ``spec_fields`` but asking for no derivation) consumes the canonical
        string directly, including per-variable maps.
        """
        # Imported lazily: repro.dataset sits above this layer.
        from repro.dataset.spec import parse_compression, sweep_axes_from_spec

        parsed = parse_compression(self.compression)
        object.__setattr__(self, "compression", parsed.canonical)
        if self.kind not in SWEEP_KINDS:
            return  # plugin kinds interpret the canonical string themselves
        overrides = sweep_axes_from_spec(parsed, self.kind)  # maps raise here
        if parsed.is_auto:
            from repro.dataset.tuner import candidate_bounds

            overrides["bounds"] = candidate_bounds(self.bounds, parsed.bound)
        for field_name, value in overrides.items():
            object.__setattr__(self, field_name, value)

    # -- expansion -----------------------------------------------------------

    def points(self) -> list[GridPoint]:
        """Expand to grid points via the kind's registered expansion.

        The order is deterministic and matches the seed drivers point for
        point — grid-point identity is what the content-addressed store
        hashes, so expansions never reorder between releases.
        """
        return registry.get_kind(self.kind).expand(self)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        if not payload["compression"]:
            # Specs that never set a compression string serialise exactly as
            # they did before the field existed (goldens pin those dicts).
            del payload["compression"]
        if not payload["scenario"]:
            # Same treatment for the cluster scenario string.
            del payload["scenario"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SweepSpec fields: {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**payload)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid sweep spec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("sweep spec JSON must be an object")
        return cls.from_dict(payload)
