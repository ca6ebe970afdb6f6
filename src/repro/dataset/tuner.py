"""The ``auto`` resolver: cheapest codec+bound meeting a quality floor.

An ``auto`` spec (``"auto,rel,1e-3"``) names *what quality* a variable must
keep, not *how* to achieve it.  :class:`AutoTuner` resolves it by searching
the same (codec, bound) grid the paper's sweeps cover: every candidate at
or under the floor is scored by its modeled compress+write energy on the
testbed, and the cheapest feasible one wins.  Catalogue-backed variables
answer from the testbed's memoized roundtrip/io paths (so a tune after a
sweep is nearly free); ad-hoc arrays are compressed for real.

``dataset write``, ``dataset tune`` and ``--kind dataset`` sweeps all
resolve through :meth:`AutoTuner.resolve`, and grid kinds narrow an
``auto`` spec's bound axis with :func:`candidate_bounds`.

The result is a :class:`TuningReport` of per-variable
:class:`VariableTuning` entries — each carrying the resolved concrete spec
string, the measured quality, and the candidate count, so a tune is
auditable rather than a black box — plus the codec streams the façade
stores.  Each stream is compressed once: an explicit spec on an ad-hoc
array measures quality from the very streams it stores, and an ``auto``
search keeps its winner's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compressors import get_compressor
from repro.compressors.blocks import chunk_array
from repro.dataset.containers import Dataset, Variable
from repro.dataset.spec import CompressionSpec, parse_compression
from repro.energy.cpus import get_cpu
from repro.energy.measurement import compression_energy
from repro.errors import CompressionError, ConfigurationError
from repro.metrics.error import max_rel_error, value_range

__all__ = ["AutoTuner", "TuningReport", "VariableTuning", "candidate_bounds"]

#: The paper's EBLC grid — the search space of an ``auto`` spec.
DEFAULT_CODECS = ("sz2", "sz3", "zfp", "qoz", "szx")
DEFAULT_BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class VariableTuning:
    """How one variable's requested spec resolved to a concrete codec."""

    variable: str
    requested: str  # canonical requested spec (may be auto)
    resolved: str  # canonical concrete spec (never auto)
    codec: str
    rel_bound: float  # value-range relative; 0.0 for lossless
    floor: float | None  # the auto quality floor, None for explicit specs
    max_rel_err: float
    ratio: float
    cost_energy_j: float  # modeled compress(+write) energy used for ranking
    candidates: int  # grid points examined

    @property
    def meets_floor(self) -> bool:
        return self.floor is None or self.max_rel_err <= self.floor


@dataclass(frozen=True)
class TuningReport:
    """Per-variable tuning outcomes, in dataset variable order."""

    entries: tuple[VariableTuning, ...]
    #: Per variable, the codec streams to store: one per leading-axis chunk.
    streams: dict[str, tuple[bytes, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def for_variable(self, name: str) -> VariableTuning:
        for entry in self.entries:
            if entry.variable == name:
                return entry
        raise KeyError(name)

    @property
    def all_meet_floor(self) -> bool:
        return all(entry.meets_floor for entry in self.entries)


def candidate_bounds(bounds, floor: float) -> tuple[float, ...]:
    """The bounds an ``auto`` search tries under a quality floor: every grid
    bound at or under ``floor`` (a coarser bound can only miss it), or the
    floor itself when the grid has none."""
    return tuple(b for b in bounds if b <= floor) or (floor,)


def _resolved_string(codec: str, rel_bound: float) -> str:
    if rel_bound == 0.0:
        return CompressionSpec(mode="lossless", codec=codec).canonical
    return CompressionSpec(
        mode="lossy", codec=codec, bound_mode="rel", bound=rel_bound
    ).canonical


class AutoTuner:
    """Search the sweep grid for the cheapest spec meeting each floor."""

    def __init__(
        self,
        testbed=None,
        codecs: tuple[str, ...] = DEFAULT_CODECS,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        io_library: str = "hdf5",
        cpu_name: str = "max9480",
    ):
        self._testbed = testbed
        self.codecs = tuple(codecs)
        self.bounds = tuple(bounds)
        self.io_library = io_library
        self.cpu_name = cpu_name

    @property
    def testbed(self):
        """The testbed that prices catalogue variables; a ``tiny`` one is
        built on first use when none was given."""
        if self._testbed is None:
            from repro.core.experiments import Testbed

            self._testbed = Testbed(scale="tiny")
        return self._testbed

    # -- candidate measurement -------------------------------------------------

    def _on_grid(self, variable: Variable) -> bool:
        """Whether ``variable`` is a catalogue field at the testbed's scale,
        which the testbed's memoized round-trips price."""
        scale = "tiny" if self._testbed is None else self._testbed.scale
        return variable.source is not None and variable.scale == scale

    @staticmethod
    def _compress(
        variable: Variable, codec: str, rel_bound: float, n_chunks: int
    ) -> tuple[bytes, ...]:
        """The streams stored for ``variable``: one batched compress of its
        leading-axis chunks, or of the whole array when ``n_chunks`` is 1."""
        data = variable.data
        pieces = chunk_array(data, n_chunks) if n_chunks > 1 else [data]
        bufs = get_compressor(codec).compress_many(pieces, rel_bound)
        return tuple(buf.data for buf in bufs)

    def _measure(
        self, variable: Variable, codec: str, rel_bound: float, n_chunks: int = 1
    ):
        """(max_rel_err, ratio, cost_energy_j, streams) for one candidate.

        Catalogue variables go through the testbed's memoized roundtrip and
        io-point paths (grid identity matches the sweep kinds, so a prior
        ``repro sweep`` already paid for them) and return no streams.
        Ad-hoc arrays compress their ``n_chunks`` pieces for real, once;
        quality comes from decompressing those same streams, and the cost
        is the modeled compression energy of the whole variable.
        """
        if self._on_grid(variable):
            rt = self.testbed.roundtrip(variable.source, codec, rel_bound)
            io = self.testbed.io_point(
                variable.source,
                codec,
                rel_bound,
                io_library=self.io_library,
                cpu_name=self.cpu_name,
            )
            return rt.max_rel_err, rt.ratio, io.total_energy_j, None
        testbed = self._testbed  # ad-hoc arrays need no testbed of their own
        streams = self._compress(variable, codec, rel_bound, n_chunks)
        parts = get_compressor(codec).decompress_many(streams)
        recon = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        model = {} if testbed is None else dict(
            throughput=testbed.throughput, sample_interval=testbed.sample_interval)
        report = compression_energy(
            codec, variable.nbytes, rel_bound, get_cpu(self.cpu_name), **model
        )
        ratio = variable.nbytes / max(1, sum(len(s) for s in streams))
        return max_rel_error(variable.data, recon), ratio, report.energy_j, streams

    # -- resolution -------------------------------------------------------------

    def _search(self, variable: Variable, floor: float):
        """An ``auto`` grid search on the whole variable; returns
        ``(candidates, (codec, bound, err, ratio, cost, streams))`` of the
        cheapest candidate meeting the floor.  A candidate its codec
        rejects with a typed error is skipped, not counted."""
        bounds = candidate_bounds(self.bounds, floor)
        best = None
        examined = 0
        skipped = []
        for codec in self.codecs:
            if self._on_grid(variable):
                try:  # one batched codec pass; each bound is memoized
                    self.testbed.roundtrips(variable.source, codec, bounds)
                except (CompressionError, ConfigurationError):
                    pass  # the failing bound is skipped below
            for bound in bounds:
                try:
                    err, ratio, cost, streams = self._measure(variable, codec, bound)
                except (CompressionError, ConfigurationError) as exc:
                    skipped.append((codec, bound, exc))
                    continue
                examined += 1
                if err > floor:
                    continue
                # Deterministic ranking: cheapest energy, then best ratio,
                # then stable (codec, bound) order.
                key = (cost, -ratio, codec, bound)
                if best is None or key < best[0]:
                    best = (key, codec, bound, err, ratio, cost, streams)
        if best is None:
            codec, bound, cause = skipped[0] if skipped else (None, None, None)
            first = f"; first skipped: {codec} at {bound:g} ({cause})" if skipped else ""
            raise ConfigurationError(
                f"auto-tuning {variable.name!r}: no (codec, bound) candidate "
                f"met the quality floor {floor:g} ({examined} examined, "
                f"{len(skipped)} skipped; codecs {self.codecs}, bounds {bounds}){first}"
            ) from cause
        return examined, best[1:]

    def resolve(
        self, variable: Variable, spec: CompressionSpec, n_chunks: int = 1
    ) -> tuple[VariableTuning, tuple[bytes, ...] | None]:
        """Resolve one spec for one variable: its tuning entry, and the
        streams measuring it coded, or ``None`` (a catalogue field at the
        testbed's scale codes none)."""
        spec.validate()
        # The explicit bound, or the auto floor, relative to the value range.
        rel = 0.0 if spec.is_lossless else spec.rel_bound_for(value_range(variable.data))
        if spec.is_auto:
            floor = rel
            candidates, winner = self._search(variable, floor)
            codec, bound, err, ratio, cost, streams = winner
            if n_chunks > 1:
                streams = None  # the search measured the whole variable
        else:
            floor, candidates, codec, bound = None, 1, spec.codec, rel
            err, ratio, cost, streams = self._measure(variable, codec, bound, n_chunks)
        entry = VariableTuning(
            variable=variable.name,
            requested=spec.canonical,
            resolved=_resolved_string(codec, bound),
            codec=codec,
            rel_bound=bound,
            floor=floor,
            max_rel_err=err,
            ratio=ratio,
            cost_energy_j=cost,
            candidates=candidates,
        )
        return entry, streams

    def tune(self, dataset: Dataset, compression, n_chunks: int = 1) -> TuningReport:
        """Resolve a spec string (or parsed spec/map) for a whole dataset.

        The report carries, per variable, the streams to store: the whole
        variable, or its ``n_chunks`` leading-axis chunks.
        """
        if isinstance(compression, str):
            compression = parse_compression(compression)
        entries = []
        streams = {}
        for variable in dataset:
            spec = compression.spec_for(variable.name)
            entry, kept = self.resolve(variable, spec, n_chunks)
            if kept is None:
                kept = self._compress(variable, entry.codec, entry.rel_bound, n_chunks)
            streams[variable.name] = kept
            entries.append(entry)
        return TuningReport(entries=tuple(entries), streams=streams)
