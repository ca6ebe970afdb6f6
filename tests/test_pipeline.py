"""Block-pipelined compressed-I/O: chunking, the plan, and the drivers.

The load-bearing guarantees under test (PR acceptance criteria):

- with overlap disabled, ``pipeline_point`` reproduces the sequential
  ``io_point`` energy and time bit for bit;
- with overlap enabled on a PFS-bound configuration, the total time is
  strictly less than ``compress_time + write_time``;
- chunk decomposition and the chunked container layout round-trip real
  data bit for bit;
- pipeline points flow through the sweep spec, engine, store and CLI like
  every other record type.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.experiments import PipelinePoint, Testbed
from repro.energy.measurement import compose_phases
from repro.errors import ConfigurationError
from repro.iolib.base import get_io_library
from repro.iolib.pfs import PFSModel
from repro.iolib.pipeline import (
    PipelineConfig,
    chunk_array,
    chunk_spans,
    plan_pipelined_write,
)
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore, decode_record, encode_record


@pytest.fixture(scope="module")
def tb():
    return Testbed(scale="tiny", sample_interval=0.05)


@pytest.fixture(scope="module")
def pfs_bound_tb():
    """A testbed whose PFS is slow enough that writes dominate compress."""
    return Testbed(
        scale="tiny",
        sample_interval=0.05,
        pfs=PFSModel(n_osts=1, ost_bw_mbps=100.0, stripe_count=1, client_bw_mbps=200.0),
    )


class TestChunking:
    def test_spans_cover_exactly(self):
        sizes = chunk_spans(1003, 8)
        assert sizes.sum() == 1003
        assert sizes.size == 8
        assert sizes.max() - sizes.min() <= 1

    def test_spans_never_empty(self):
        sizes = chunk_spans(3, 8)
        assert sizes.size == 3 and (sizes >= 1).all()

    def test_spans_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_spans(0, 4)
        with pytest.raises(ConfigurationError):
            chunk_spans(100, 0)

    @pytest.mark.parametrize("n_chunks", [1, 3, 4, 7])
    def test_chunk_array_roundtrip_3d(self, n_chunks):
        data = np.arange(12 * 5 * 4, dtype=np.float32).reshape(12, 5, 4)
        chunks = chunk_array(data, n_chunks)
        np.testing.assert_array_equal(np.concatenate(chunks, axis=0), data)

    def test_chunk_array_roundtrip_1d_uneven(self):
        data = np.arange(17, dtype=np.float64)
        chunks = chunk_array(data, 5)
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    def test_chunk_array_count_matches_chunk_spans(self):
        """The real decomposition never diverges from the modeled one."""
        data = np.arange(12 * 2, dtype=np.float32).reshape(12, 2)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 20):
            chunks = chunk_array(data, n)
            assert len(chunks) == min(n, 12)
            np.testing.assert_array_equal(np.concatenate(chunks, axis=0), data)

    def test_chunk_array_more_chunks_than_rows(self):
        data = np.arange(3, dtype=np.float32)
        chunks = chunk_array(data, 16)
        assert len(chunks) == 3
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(n_chunks=0)


class TestPlan:
    PFS = PFSModel()
    COST = get_io_library("hdf5").cost

    def test_arrivals_follow_stage_finish(self):
        plan = plan_pipelined_write(80_000_000, 2.0, self.PFS, self.COST, 1.0, 8)
        assert plan.n_chunks == 8
        for arrive, stage in zip(plan.write_arrival, plan.stage_finish):
            assert arrive >= stage
        # Stage finishes are strictly increasing (chunks run back to back).
        assert all(
            b > a for a, b in zip(plan.stage_finish[:-1], plan.stage_finish[1:])
        )

    def test_overlap_never_slower_than_stages_summed_when_write_bound(self):
        plan = plan_pipelined_write(
            800_000_000, 0.5, self.PFS, self.COST, 1.0, 8
        )
        assert plan.total_time_s < plan.sequential_time_s
        assert plan.overlap_saving_s > 0

    def test_single_chunk_has_no_overlap_to_exploit(self):
        plan = plan_pipelined_write(80_000_000, 2.0, self.PFS, self.COST, 1.0, 1)
        # One chunk: the write cannot start before all compression is done.
        assert plan.total_time_s == pytest.approx(plan.sequential_time_s, abs=1e-9)

    def test_intervals_compose_to_the_makespan(self):
        plan = plan_pipelined_write(80_000_000, 2.0, self.PFS, self.COST, 1.0, 4)
        phases = compose_phases(plan.intervals, max_cores=32)
        assert sum(p.duration_s for p in phases) == pytest.approx(
            plan.total_time_s, rel=1e-9
        )


class TestEquivalenceWithSequential:
    """Acceptance: overlap-off pipeline == sequential path, bit for bit."""

    @pytest.mark.parametrize("codec,eps", [("szx", 1e-3), (None, None)])
    def test_energy_and_time_match(self, tb, codec, eps):
        seq = tb.io_point("cesm", codec, eps, "hdf5", "max9480")
        ctl = tb.pipeline_point(
            "cesm", codec, eps, "hdf5", "max9480", n_chunks=4, overlap=False
        )
        assert ctl.bytes_written == seq.bytes_written
        assert ctl.compress_time_s == seq.compress_time_s
        assert ctl.write_time_s == seq.write_time_s
        assert ctl.total_time_s == seq.compress_time_s + seq.write_time_s
        assert ctl.total_energy_j == seq.total_energy_j
        assert ctl.overlap_saving_s == 0.0


class TestOverlapSavings:
    """Acceptance: PFS-bound overlap makes total < compress + write."""

    def test_pfs_bound_total_strictly_below_stage_sum(self, pfs_bound_tb):
        p = pfs_bound_tb.pipeline_point("cesm", "sz3", 1e-3, "hdf5", n_chunks=8)
        assert p.total_time_s < p.compress_time_s + p.write_time_s
        assert p.overlap_saving_s > 0

    def test_compute_bound_also_saves(self, tb):
        # Default PFS, slow codec: writes hide entirely under compression.
        p = tb.pipeline_point("cesm", "sz3", 1e-3, "hdf5", n_chunks=8)
        assert p.total_time_s < p.compress_time_s + p.write_time_s

    def test_overlap_uses_no_more_energy_than_sequential(self, pfs_bound_tb):
        ovl = pfs_bound_tb.pipeline_point("cesm", "szx", 1e-3, "hdf5", n_chunks=8)
        ctl = pfs_bound_tb.pipeline_point(
            "cesm", "szx", 1e-3, "hdf5", n_chunks=8, overlap=False
        )
        assert ovl.total_time_s < ctl.total_time_s
        assert ovl.total_energy_j <= ctl.total_energy_j * (1 + 1e-9)

    def test_uncompressed_baseline_overlaps_serialize_with_transfer(self, pfs_bound_tb):
        p = pfs_bound_tb.pipeline_point("cesm", None, None, "hdf5", n_chunks=8)
        assert p.compress_time_s == 0.0 and p.compress_energy_j == 0.0
        assert p.total_time_s < p.write_time_s  # serialize hides under transfer

    def test_hdf5_pays_less_chunk_metadata_than_netcdf(self, pfs_bound_tb):
        h = pfs_bound_tb.pipeline_point("cesm", "szx", 1e-3, "hdf5", n_chunks=8)
        n = pfs_bound_tb.pipeline_point("cesm", "szx", 1e-3, "netcdf", n_chunks=8)
        assert n.total_time_s > h.total_time_s


class TestSweepIntegration:
    def test_spec_expansion_and_json_roundtrip(self):
        spec = SweepSpec(
            kind="pipeline",
            datasets=("cesm",),
            codecs=("szx",),
            bounds=(1e-3,),
            io_libraries=("hdf5",),
            n_chunks=4,
            overlap=True,
        )
        points = spec.points()
        assert len(points) == 2  # baseline + one codec point
        assert all(p.op == "pipeline_point" for p in points)
        assert all(p.as_kwargs()["n_chunks"] == 4 for p in points)
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_engine_memoizes_pipeline_points(self, tb):
        engine = SweepEngine(testbed=tb, store=ResultStore())
        spec = SweepSpec(
            kind="pipeline", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
            io_libraries=("hdf5",), n_chunks=4,
        )
        first = engine.run(spec)
        computed = engine.stats.computed
        second = engine.run(spec)
        assert engine.stats.computed == computed  # all cache hits
        assert first == second

    def test_overlap_toggle_changes_the_cache_key(self, tb):
        engine = SweepEngine(testbed=tb, store=ResultStore())
        on = engine.evaluate(
            "pipeline_point", dataset="cesm", codec="szx", rel_bound=1e-3,
            io_library="hdf5", cpu_name="max9480", n_chunks=4, overlap=True,
        )
        off = engine.evaluate(
            "pipeline_point", dataset="cesm", codec="szx", rel_bound=1e-3,
            io_library="hdf5", cpu_name="max9480", n_chunks=4, overlap=False,
        )
        assert on != off and engine.stats.computed == 2

    def test_record_disk_roundtrip(self, tb, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        p = tb.pipeline_point("cesm", "szx", 1e-3, "hdf5", n_chunks=4)
        assert decode_record(encode_record(p)) == p
        store.put("k", p)
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get("k") == p

    def test_run_pipeline_sweep_driver(self, tb):
        recs = tb.run_sweep(
            "pipeline", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
            io_libraries=("hdf5",), n_chunks=4,
        )
        assert len(recs) == 2
        assert all(isinstance(r, PipelinePoint) for r in recs)
        assert recs[0].codec is None  # baseline first, like the io kind


class TestPipelineCLI:
    def test_sweep_kind_pipeline_json(self, capsys):
        rc = main([
            "sweep", "--kind", "pipeline", "--datasets", "cesm", "--codecs", "szx",
            "--bounds", "1e-3", "--io-libraries", "hdf5", "--scale", "tiny",
            "--n-chunks", "4", "--json",
        ])
        assert rc == 0
        payload = [r for r in json.loads(capsys.readouterr().out)
                   if "__record__" in r]
        assert len(payload) == 2
        assert all(r["__record__"] == "PipelinePoint" for r in payload)
        for r in payload:
            # Overlap hides stage time; only per-chunk metadata may add back.
            slack = 0.01 * r["n_chunks"]
            assert (
                r["total_time_s"]
                <= r["compress_time_s"] + r["write_time_s"] + slack + 1e-9
            )

    def test_sweep_no_overlap_flag(self, capsys):
        rc = main([
            "sweep", "--kind", "pipeline", "--datasets", "cesm", "--codecs", "szx",
            "--bounds", "1e-3", "--io-libraries", "hdf5", "--scale", "tiny",
            "--n-chunks", "4", "--no-overlap", "--no-baseline", "--json",
        ])
        assert rc == 0
        (rec,) = [r for r in json.loads(capsys.readouterr().out)
                  if "__record__" in r]
        assert rec["overlap"] is False
        assert rec["total_time_s"] == pytest.approx(
            rec["compress_time_s"] + rec["write_time_s"]
        )

    def test_table_rendering(self, capsys):
        rc = main([
            "sweep", "--kind", "pipeline", "--datasets", "cesm", "--codecs", "szx",
            "--bounds", "1e-3", "--io-libraries", "hdf5", "--scale", "tiny",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunks" in out and "saved [s]" in out and "original" in out

    @pytest.mark.parametrize(
        "lib,n_chunks", [("hdf5", 4), ("netcdf", 64)]
    )
    def test_schema_checker_accepts_cli_output(self, tmp_path, capsys, lib, n_chunks):
        # netcdf at 64 chunks pays real per-chunk header rewrites that can
        # push the makespan above the bare stage sum — the checker's
        # metadata allowance must accept that as valid model output.
        main([
            "sweep", "--kind", "pipeline", "--datasets", "cesm", "--codecs", "szx",
            "--bounds", "1e-3", "--io-libraries", lib, "--scale", "tiny",
            "--n-chunks", str(n_chunks), "--json",
        ])
        doc = capsys.readouterr().out
        path = tmp_path / "PIPELINE_sweep.json"
        path.write_text(doc)
        import importlib.util
        import pathlib

        tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
        spec = importlib.util.spec_from_file_location(
            "check_record_schemas", tools / "check_record_schemas.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.check("pipeline", path) == []
