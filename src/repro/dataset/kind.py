"""The ``dataset`` experiment kind: the façade as a registry plugin.

One grid point = one (dataset, variable, compression-spec, I/O library,
CPU) cell.  The evaluate entrypoint resolves the spec through the same
:meth:`~repro.dataset.tuner.AutoTuner.resolve` that
:func:`repro.dataset.facade.write` uses — ``abs`` bounds against the
variable's value range, ``auto`` through the tuner's grid search — and
answers with a :class:`DatasetPoint` combining the real roundtrip quality
with the modeled compress+write cost.  Registering through
:func:`repro.runtime.registry.register` buys the whole runtime for free:
``repro sweep --kind dataset``, engine memoization, the conformance
battery, wire-record checks from its type hints, and the CLI table renderer.

Grid identity note: ``auto`` points embed their search grid (codecs,
bounds) in the point kwargs — two auto points with different search spaces
are different experiments and must not share a store key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.containers import Dataset
from repro.dataset.spec import CompressionSpec, parse_compression
from repro.dataset.tuner import AutoTuner
from repro.runtime import registry

__all__ = ["DatasetPoint", "DATASET_KIND"]

#: A dataset sweep with no spec tunes at the paper's headline floor.
DEFAULT_COMPRESSION = "auto,rel,1e-3"


@dataclass(frozen=True)
class DatasetPoint:
    """One façade write, resolved and costed."""

    dataset: str
    variable: str
    compression: str  # requested spec (canonical; may be auto)
    codec: str  # resolved codec
    rel_bound: float  # resolved value-range relative bound; 0.0 = lossless
    io_library: str
    cpu: str
    tuned: bool  # True when an auto spec chose codec/bound
    candidates: int  # grid points the tuner examined (1 for explicit)
    ratio: float
    psnr_db: float
    max_rel_err: float
    bytes_written: int
    write_time_s: float
    write_energy_j: float
    compress_time_s: float
    compress_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.write_energy_j + self.compress_energy_j


def _expand_dataset(spec) -> list:
    from repro.runtime.spec import GridPoint

    parsed = parse_compression(spec.compression or DEFAULT_COMPRESSION)
    out = []
    for cpu in spec.cpus:
        for lib in spec.io_libraries:
            for ds in spec.datasets:
                cspec = parsed.spec_for(ds)
                kwargs = dict(
                    dataset=ds,
                    variable=ds,
                    compression=cspec.canonical,
                    io_library=lib,
                    cpu_name=cpu,
                )
                if cspec.is_auto:
                    # The search grid is part of the point's identity.
                    kwargs["codecs"] = spec.codecs
                    kwargs["bounds"] = spec.bounds
                out.append(GridPoint.make("dataset_point", **kwargs))
    return out


def _validate_dataset(spec) -> None:
    parsed = parse_compression(spec.compression or DEFAULT_COMPRESSION)
    parsed.validate()  # unknown codecs fail at spec time, not in a worker


def _evaluate_dataset_point(
    testbed,
    dataset: str,
    variable: str,
    compression: str,
    io_library: str,
    cpu_name: str,
    codecs: tuple[str, ...] = (),
    bounds: tuple[float, ...] = (),
):
    """Resolve one spec against one catalogue variable through the tuner
    (which codes no stream for it) and cost the write."""
    spec = CompressionSpec.parse(compression)
    tuner = AutoTuner(testbed, codecs=codecs, bounds=bounds,
                      io_library=io_library, cpu_name=cpu_name)
    (field,) = Dataset.from_catalog(dataset, scale=testbed.scale)
    tuning, _ = tuner.resolve(field, spec)
    codec, rel_bound = tuning.codec, tuning.rel_bound
    rt = testbed.roundtrip(dataset, codec, rel_bound)
    io = testbed.io_point(
        dataset, codec, rel_bound, io_library=io_library, cpu_name=cpu_name
    )
    return DatasetPoint(
        dataset=dataset,
        variable=variable,
        compression=compression,
        codec=codec,
        rel_bound=rel_bound,
        io_library=io_library,
        cpu=cpu_name,
        tuned=spec.is_auto,
        candidates=tuning.candidates,
        ratio=rt.ratio,
        psnr_db=rt.psnr_db,
        max_rel_err=rt.max_rel_err,
        bytes_written=io.bytes_written,
        write_time_s=io.write_time_s,
        write_energy_j=io.write_energy_j,
        compress_time_s=io.compress_time_s,
        compress_energy_j=io.compress_energy_j,
    )


def _table_dataset(records) -> str:
    from repro.core.report import format_table, si

    rows = [
        [
            r.dataset,
            r.compression,
            r.codec,
            f"{r.rel_bound:.0e}" if r.rel_bound else "lossless",
            "yes" if r.tuned else "-",
            f"{r.ratio:.2f}",
            "inf" if r.psnr_db == float("inf") else f"{r.psnr_db:.1f}",
            si(r.bytes_written, "B"),
            f"{r.total_energy_j:.1f}",
        ]
        for r in records
    ]
    return format_table(
        ["dataset", "spec", "codec", "REL", "tuned", "ratio", "PSNR [dB]",
         "written", "E [J]"],
        rows,
        title="dataset facade points (resolved specs)",
    )


def _invariants_dataset(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if min(rec["write_time_s"], rec["compress_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["write_energy_j"], rec["compress_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        if rec["candidates"] < 1:
            errors.append(f"{where}: candidates must be >= 1")
        # An auto point's resolved quality must honour its requested floor
        # (non-finite max_rel_err arrives as a repr string; skip those).
        spec = CompressionSpec.parse(rec["compression"])
        if (
            spec.is_auto
            and spec.bound_mode == "rel"
            and isinstance(rec["max_rel_err"], (int, float))
            and rec["max_rel_err"] > spec.bound
        ):
            errors.append(
                f"{where}: max_rel_err {rec['max_rel_err']} exceeds the "
                f"auto floor {spec.bound}"
            )
    return errors


DATASET_KIND = registry.register(
    registry.ExperimentKind(
        name="dataset",
        help="per-variable compression-spec resolution through the facade "
        "(auto-tuned codec+bound, costed write)",
        record=DatasetPoint,
        expand=_expand_dataset,
        ops=("dataset_point",),
        spec_fields=("datasets", "codecs", "bounds", "cpus", "io_libraries",
                     "compression"),
        validate=_validate_dataset,
        evaluate={"dataset_point": _evaluate_dataset_point},
        table=_table_dataset,
        invariants=_invariants_dataset,
        conformance=dict(
            datasets=("cesm",),
            codecs=("szx", "sz3"),
            bounds=(1e-3, 1e-2),
            io_libraries=("hdf5",),
            cpus=("max9480",),
            compression="auto,rel,1e-2",
        ),
    )
)
