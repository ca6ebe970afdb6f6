#!/usr/bin/env python
"""Regenerate the pinned advisor verdicts under ``tests/fixtures/``.

Every compress-or-not advisor (``Advisor``, ``DvfsAdvisor``, ``DalyAdvisor``
and ``ClusterAdvisor``) is asked about a fixed set of scenarios on a
``scale="tiny"`` testbed: the cesm/hacc/nyx/s3d datasets through HDF5 and
NetCDF on the plat8160 CPU, at a 50 dB quality floor.  Each answer is
reduced to its verdict (compress or not), its plan (codec, bound,
frequency) and its energies, and written to
``tests/fixtures/advisor_pins.json``.  ``tests/test_advisor_pins.py``
asserts that the advisors still give exactly these answers, so a refactor of
the advisor search cannot silently flip a verdict.

Run from the repo root::

    PYTHONPATH=src python tools/gen_advisor_pins.py

Only regenerate after an *intentional* change to what an advisor answers;
the diff of the JSON file is then part of the review.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.advisor import (  # noqa: E402
    Advisor,
    ClusterAdvisor,
    DalyAdvisor,
    DvfsAdvisor,
)
from repro.core.experiments import Testbed  # noqa: E402
from repro.core.tradeoff import TradeoffAnalyzer  # noqa: E402

FIXTURE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "tests"
    / "fixtures"
    / "advisor_pins.json"
)

DATASETS = ("cesm", "hacc", "nyx", "s3d")
IO_LIBRARIES = ("hdf5", "netcdf")
OBJECTIVES = ("energy", "ratio", "time")
CPU = "plat8160"
PSNR_MIN_DB = 50.0
CLUSTER_SCENARIO = (
    "nodes=3; t0=ranks:48,codec:zfp,bound:1e-4; "
    "t1=ranks:48,codec:zfp,bound:1e-4; t2=ranks:48,codec:zfp,bound:1e-4"
)


def _strictness(strict: bool) -> str:
    return "strict" if strict else "loose"


def _advisor_entry(rec) -> dict:
    entry = {
        "compress": rec.should_compress,
        "codec": rec.plan.codec if rec.plan else None,
        "rel_bound": rec.plan.rel_bound if rec.plan else None,
    }
    if rec.record is not None:
        c = rec.record.conditions
        entry.update(
            ratio=rec.record.ratio,
            psnr_db=rec.record.psnr_db,
            compress_energy_j=c.compress_energy_j,
            write_energy_compressed_j=c.write_energy_compressed_j,
            write_energy_orig_j=c.write_energy_orig_j,
            compress_time_s=c.compress_time_s,
            write_time_compressed_s=c.write_time_compressed_s,
            write_time_orig_s=c.write_time_orig_s,
        )
    return entry


def _dvfs_entry(advice) -> dict:
    return {
        "compress": advice.compress,
        "codec": advice.codec,
        "rel_bound": advice.rel_bound,
        "freq_ghz": advice.freq_ghz,
        "energy_j": advice.energy_j,
        "time_s": advice.time_s,
        "baseline_energy_j": advice.baseline_energy_j,
        "baseline_time_s": advice.baseline_time_s,
        "race_to_idle_energy_j": advice.race_to_idle_energy_j,
        "slow_and_steady_energy_j": advice.slow_and_steady_energy_j,
        "chosen_deadline_energy_j": advice.chosen_deadline_energy_j,
        "pareto_size": len(advice.pareto),
    }


def _daly_entry(advice) -> dict:
    return {
        "compress": advice.compress,
        "codec": advice.codec,
        "rel_bound": advice.rel_bound,
        "interval_s": advice.interval_s,
        "expected_energy_j": advice.expected_energy_j,
        "expected_makespan_s": advice.expected_makespan_s,
        "baseline_energy_j": advice.baseline_energy_j,
        "single_write_compress": advice.single_write_compress,
        "flips": advice.flips,
        "flip_margin_j": advice.flip_margin_j,
        "n_candidates": len(advice.candidates),
    }


def _cluster_entry(advice) -> dict:
    return {
        "compress": advice.compress,
        "best_mix": [[name, codec] for name, codec in advice.best_mix],
        "best_energy_j": advice.best_energy_j,
        "all_energy_j": advice.all_energy_j,
        "none_energy_j": advice.none_energy_j,
        "dedicated_all_energy_j": advice.dedicated_all_energy_j,
        "dedicated_none_energy_j": advice.dedicated_none_energy_j,
        "flips": advice.flips,
    }


def collect(testbed: Testbed | None = None) -> dict[str, dict]:
    """Every pinned advisor answer, keyed ``advisor/dataset/io/...``."""
    tb = testbed or Testbed(scale="tiny")
    out: dict[str, dict] = {}
    for ds in DATASETS:
        for lib in IO_LIBRARIES:
            plain = Advisor(TradeoffAnalyzer(tb, cpu_name=CPU, io_library=lib))
            dvfs = DvfsAdvisor(tb, cpu_name=CPU, io_library=lib)
            for objective in OBJECTIVES:
                for strict in (True, False):
                    tail = f"{ds}/{lib}/{objective}/{_strictness(strict)}"
                    out[f"advisor/{tail}"] = _advisor_entry(
                        plain.recommend(
                            ds,
                            psnr_min_db=PSNR_MIN_DB,
                            objective=objective,
                            require_time_benefit=strict,
                        )
                    )
                    out[f"dvfs/{tail}"] = _dvfs_entry(
                        dvfs.advise(
                            ds,
                            psnr_min_db=PSNR_MIN_DB,
                            objective=objective,
                            require_time_benefit=strict,
                        )
                    )
            daly = DalyAdvisor(tb, cpu_name=CPU, io_library=lib)
            out[f"daly/{ds}/{lib}"] = _daly_entry(
                daly.advise(ds, psnr_min_db=PSNR_MIN_DB)
            )
    cluster = ClusterAdvisor(tb, cpu_name=CPU, io_library="hdf5")
    out["cluster/nyx/hdf5"] = _cluster_entry(cluster.advise("nyx", CLUSTER_SCENARIO))
    return out


def load() -> dict[str, dict]:
    """The committed pins."""
    return json.loads(FIXTURE_PATH.read_text())["pins"]


def main() -> int:
    pins = collect()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    doc = {"version": 1, "scale": "tiny", "cpu": CPU, "pins": pins}
    FIXTURE_PATH.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(pins)} advisor answers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
