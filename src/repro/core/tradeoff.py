"""Grid trade-off analysis: evaluate Eq. 3-5 over (codec, bound) choices.

:class:`TradeoffAnalyzer` prices every (codec, bound) write of one dataset
and attaches the Section-III benefit conditions to it, versus the
uncompressed write through the same I/O library.  This is what the plain
:class:`~repro.core.advisor.Advisor` recommends from.

Both sides of Eq. 3-5 come from one ``dvfs`` sweep pinned at the CPU's
nominal clock, which prices exactly what the ``io`` kind prices: the whole
snapshot is compressed and written, so the compress cost and the write it
shrinks are charged on the same data.  The sweep runs through the
:mod:`repro.runtime` engine, so the points (and the baseline every record is
judged against) land in the memoizing result store: re-running
``evaluate`` over a warm store — or asking the advisor about the same grid
twice — performs zero new testbed evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiments import Testbed
from repro.core.formulation import BenefitConditions, CompressionPlan
from repro.energy.cpus import get_cpu
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import SweepSpec

__all__ = ["TradeoffRecord", "TradeoffAnalyzer"]


@dataclass(frozen=True)
class TradeoffRecord:
    """One evaluated grid point: a compress-and-write at the nominal clock."""

    dataset: str
    plan: CompressionPlan
    io_library: str
    cpu: str
    freq_ghz: float
    ratio: float
    psnr_db: float
    compress_energy_j: float
    write_energy_j: float
    conditions: BenefitConditions

    @property
    def total_energy_j(self) -> float:
        """Compress + write energy (the Eq. 4 left-hand side)."""
        return self.compress_energy_j + self.write_energy_j

    @property
    def total_time_s(self) -> float:
        """Compress + write time (the Eq. 3 left-hand side)."""
        return self.conditions.compress_time_s + self.conditions.write_time_compressed_s


class TradeoffAnalyzer:
    """Evaluate a grid of compression plans for one dataset."""

    def __init__(
        self,
        testbed: Testbed | None = None,
        cpu_name: str = "max9480",
        io_library: str = "hdf5",
        engine: SweepEngine | None = None,
    ):
        self.testbed = testbed or Testbed()
        self.cpu_name = cpu_name
        self.io_library = io_library
        # Reuse the testbed's engine (and thus the shared default store)
        # unless the caller wires in their own executor/cache.
        self.engine = engine or self.testbed.engine

    def evaluate(
        self,
        dataset: str,
        codecs=("sz2", "sz3", "zfp", "qoz", "szx"),
        bounds=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        psnr_min_db: float = 60.0,
        compression: str | None = None,
    ) -> list[TradeoffRecord]:
        """Run the grid; every record carries its Eq. 3-5 verdicts.

        ``compression`` (a spec string, see :mod:`repro.dataset.spec`)
        narrows ``codecs``/``bounds`` exactly as it does for any sweep.
        """
        baseline, *points = self.engine.run(
            SweepSpec(
                kind="dvfs",
                datasets=(dataset,),
                codecs=codecs,
                bounds=bounds,
                cpus=(self.cpu_name,),
                io_libraries=(self.io_library,),
                freqs=(get_cpu(self.cpu_name).fnom_ghz,),
                include_baseline=True,
                compression=compression or "",
            )
        )
        return [
            TradeoffRecord(
                dataset=dataset,
                plan=CompressionPlan(p.codec, p.rel_bound),
                io_library=self.io_library,
                cpu=self.cpu_name,
                freq_ghz=p.freq_ghz,
                ratio=p.ratio,
                psnr_db=p.psnr_db,
                compress_energy_j=p.compress_energy_j,
                write_energy_j=p.write_energy_j,
                conditions=BenefitConditions(
                    compress_time_s=p.compress_time_s,
                    write_time_compressed_s=p.write_time_s,
                    write_time_orig_s=baseline.write_time_s,
                    compress_energy_j=p.compress_energy_j,
                    write_energy_compressed_j=p.write_energy_j,
                    write_energy_orig_j=baseline.write_energy_j,
                    psnr_db=p.psnr_db,
                    psnr_min_db=psnr_min_db,
                ),
            )
            for p in points
        ]
