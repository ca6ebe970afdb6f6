"""Checkpoint subsystem: testbed driver, sweep kind, store, advisor, CLI."""

import math

import pytest

from repro.cli import main
from repro.core.advisor import DalyAdvisor
from repro.core.experiments import CheckpointPoint, Testbed
from repro.errors import ConfigurationError
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore, decode_record, encode_record


@pytest.fixture(scope="module")
def tb():
    return Testbed(scale="tiny")


class TestGoldenReduction:
    """mttf=inf + one checkpoint == the existing write paths, bit for bit."""

    def test_reduces_to_io_point(self, tb):
        io = tb.io_point("cesm", "szx", 1e-3, "hdf5", "max9480")
        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, "hdf5", "max9480",
            mttf_s=math.inf, work_s=600.0, interval="daly",
        )
        assert p.n_checkpoints == 1 and p.n_failures == 0
        assert p.ckpt_compress_time_s == io.compress_time_s
        assert p.ckpt_write_time_s == io.write_time_s
        assert p.ckpt_compress_energy_j == io.compress_energy_j
        assert p.ckpt_write_energy_j == io.write_energy_j
        assert p.ckpt_time_s == io.compress_time_s + io.write_time_s
        assert p.checkpoint_energy_j == io.total_energy_j
        assert p.makespan_s == 600.0 + p.ckpt_time_s
        assert p.restart_energy_j == 0.0 and p.idle_energy_j == 0.0
        # The renewal closed form is exact without failures.
        assert p.expected_makespan_s == p.makespan_s

    def test_reduces_to_io_point_uncompressed(self, tb):
        io = tb.io_point("cesm", None, None, "hdf5", "max9480")
        p = tb.checkpoint_point(
            "cesm", None, None, "hdf5", "max9480", mttf_s=math.inf, work_s=300.0
        )
        assert p.ckpt_compress_time_s == 0.0
        assert p.ckpt_write_time_s == io.write_time_s
        assert p.checkpoint_energy_j == io.total_energy_j
        assert p.ratio == 1.0 and p.psnr_db == math.inf

    def test_reduces_to_pipeline_point(self, tb):
        pp = tb.pipeline_point("cesm", "szx", 1e-3, n_chunks=4, overlap=True)
        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=600.0,
            n_chunks=4, overlap=True,
        )
        assert p.ckpt_time_s == pp.total_time_s
        assert p.ckpt_compress_time_s == pp.compress_time_s
        assert p.ckpt_write_time_s == pp.write_time_s
        assert p.checkpoint_energy_j == pp.total_energy_j
        assert p.makespan_s == 600.0 + pp.total_time_s

    def test_reduces_to_dvfs_point(self, tb):
        from repro.energy.cpus import get_cpu

        f = get_cpu("max9480").fmin_ghz
        dp = tb.dvfs_point("cesm", "szx", 1e-3, f)
        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=600.0, freq_ghz=f
        )
        assert p.ckpt_time_s == dp.total_time_s
        assert p.checkpoint_energy_j == dp.total_energy_j

    def test_restart_cost_matches_read_point(self, tb):
        rp = tb.read_point("cesm", "szx", 1e-3, "hdf5", "max9480")
        p = tb.checkpoint_point("cesm", "szx", 1e-3, mttf_s=math.inf, work_s=60.0)
        assert p.restart_fetch_time_s == rp.fetch_time_s
        assert p.restart_decompress_time_s == rp.decompress_time_s
        assert p.restart_fetch_energy_j == rp.fetch_energy_j
        assert p.restart_decompress_energy_j == rp.decompress_energy_j

    def test_dvfs_pin_scales_restart_too(self, tb):
        """Regression: the restart must honour the DVFS pin like every
        other term — decompression slows at a low clock and the whole
        restart integrates power at the pinned frequency."""
        from repro.energy.cpus import get_cpu

        cpu = get_cpu("max9480")
        nom = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=60.0,
            freq_ghz=cpu.fnom_ghz,
        )
        slow = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=60.0,
            freq_ghz=cpu.fmin_ghz,
        )
        assert slow.restart_decompress_time_s > nom.restart_decompress_time_s
        # At the nominal pin the restart matches the unpinned read path.
        rp = tb.read_point("cesm", "szx", 1e-3, "hdf5", "max9480")
        assert nom.restart_decompress_time_s == rp.decompress_time_s
        assert nom.restart_fetch_time_s == rp.fetch_time_s

    def test_dvfs_pin_excludes_pipelined(self, tb):
        with pytest.raises(ConfigurationError):
            tb.checkpoint_point(
                "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=60.0,
                freq_ghz=2.0, n_chunks=4, overlap=True,
            )


class TestExactPins:
    """Exact write and restart costs of the two branches no conformance
    golden covers: a DVFS-pinned checkpoint (pinned restart included) and
    an overlapped pipelined one.  Any change to how these points are
    priced must leave every float identical."""

    DVFS_FMIN = dict(
        ckpt_compress_time_s=0.41616487499999993,
        ckpt_write_time_s=0.2777389727870813,
        ckpt_time_s=0.6939038477870813,
        ckpt_compress_energy_j=108.577957,
        ckpt_write_energy_j=72.284006,
        restart_fetch_time_s=0.24207449910287085,
        restart_decompress_time_s=0.337347375,
        restart_fetch_energy_j=63.00802899999999,
        restart_decompress_energy_j=88.014369,
        restart_energy_j=0.0,
    )
    PIPELINED = dict(
        ckpt_compress_time_s=0.29462999999999995,
        ckpt_write_time_s=0.2777389727870813,
        ckpt_time_s=0.4124788412081339,
        ckpt_compress_energy_j=78.720893,
        ckpt_write_energy_j=31.087047999999996,
        restart_fetch_time_s=0.24207449910287085,
        restart_decompress_time_s=0.23883,
        restart_fetch_energy_j=63.486807999999996,
        restart_decompress_energy_j=63.811937,
        restart_energy_j=0.0,
    )

    @staticmethod
    def _fields(point, expected):
        return {name: getattr(point, name) for name in expected}

    def test_dvfs_pinned_at_fmin(self, tb):
        from repro.energy.cpus import get_cpu

        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=600.0,
            freq_ghz=get_cpu("max9480").fmin_ghz,
        )
        assert self._fields(p, self.DVFS_FMIN) == self.DVFS_FMIN

    def test_pipelined_overlap(self, tb):
        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=math.inf, work_s=600.0,
            n_chunks=4, overlap=True,
        )
        assert self._fields(p, self.PIPELINED) == self.PIPELINED


class TestFailingLifetimes:
    def test_seeded_run_is_deterministic(self, tb):
        kw = dict(mttf_s=4000.0, n_nodes=4, work_s=3000.0, seed=3)
        a = tb.checkpoint_point("cesm", "szx", 1e-3, **kw)
        b = tb.checkpoint_point("cesm", "szx", 1e-3, **kw)
        assert a == b  # frozen dataclass equality: every field bit-identical
        assert a.n_failures > 0 and a.rework_s > 0

    def test_simulation_tracks_closed_form(self):
        """Averaged over seeds, the simulated lifetime matches the Daly
        model within the documented tolerances (5 % time, 15 % energy).

        A coarser meter keeps 20 multi-hour lifetimes affordable; the
        discretization only moves energies at the per-sample level, far
        inside the asserted tolerance.
        """
        tb = Testbed(scale="tiny", sample_interval=0.25)
        pts = [
            tb.checkpoint_point(
                "cesm", "szx", 1e-3, mttf_s=4000.0, n_nodes=4,
                work_s=3000.0, seed=s,
            )
            for s in range(20)
        ]
        mean_t = sum(p.makespan_s for p in pts) / len(pts)
        mean_e = sum(p.total_energy_j for p in pts) / len(pts)
        assert mean_t == pytest.approx(pts[0].expected_makespan_s, rel=0.05)
        assert mean_e == pytest.approx(pts[0].expected_energy_j, rel=0.15)

    def test_failures_only_ever_add_time_and_energy(self, tb):
        inf = tb.checkpoint_point("cesm", "szx", 1e-3, mttf_s=math.inf, work_s=1200.0)
        fail = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=14400.0, n_nodes=4, work_s=1200.0, seed=1
        )
        assert fail.makespan_s >= inf.makespan_s
        assert fail.expected_makespan_s > inf.expected_makespan_s
        assert fail.expected_energy_j > inf.expected_energy_j

    def test_compression_shortens_daly_interval(self, tb):
        """Smaller checkpoints -> smaller δ -> shorter optimal interval."""
        comp = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=14400.0, n_nodes=4, work_s=1200.0
        )
        orig = tb.checkpoint_point(
            "cesm", None, None, mttf_s=14400.0, n_nodes=4, work_s=1200.0
        )
        assert comp.ckpt_time_s < orig.ckpt_time_s
        assert comp.interval_s < orig.interval_s
        assert comp.n_checkpoints >= orig.n_checkpoints


class TestStoreAndSweep:
    def test_record_round_trips_through_store(self, tb):
        p = tb.checkpoint_point(
            "cesm", "szx", 1e-3, mttf_s=14400.0, n_nodes=2, work_s=600.0, seed=5
        )
        assert decode_record(encode_record(p)) == p

    def test_record_round_trips_with_inf_mttf_on_disk(self, tb, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        p = tb.checkpoint_point("cesm", "szx", 1e-3, mttf_s=math.inf, work_s=60.0)
        store.put("k", p)
        store.clear()  # force the disk read path
        assert store.get("k") == p

    def test_memoized_rerun_hits_cache(self, tb):
        engine = SweepEngine(testbed=tb, store=ResultStore())
        spec = SweepSpec(
            kind="checkpoint", datasets=("cesm",), codecs=("szx",),
            bounds=(1e-3,), io_libraries=("hdf5",), cpus=("max9480",),
            mttfs=(float("inf"), 14400.0), work_s=600.0, n_nodes=2,
            n_chunks=1, overlap=False,
        )
        first = engine.run(spec)
        computed = engine.stats.computed
        second = engine.run(spec)
        assert first == second
        assert engine.stats.computed == computed  # all hits, nothing re-run
        assert engine.stats.cache_hits >= len(first)

    def test_expansion_order_and_mttf_axis(self):
        spec = SweepSpec(
            kind="checkpoint", datasets=("cesm",), codecs=("szx", "sz3"),
            bounds=(1e-3,), io_libraries=("hdf5",), mttfs=(float("inf"), 3600.0),
        )
        pts = spec.points()
        # baseline + 2 codecs, each over 2 MTTFs, innermost mttf axis.
        assert len(pts) == 6
        assert all(p.op == "checkpoint_point" for p in pts)
        kw = [p.as_kwargs() for p in pts]
        assert kw[0]["codec"] is None and kw[0]["mttf_s"] == math.inf
        assert kw[1]["codec"] is None and kw[1]["mttf_s"] == 3600.0
        assert kw[2]["codec"] == "szx" and kw[2]["mttf_s"] == math.inf

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", mttfs=())
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", mttfs=(0.0,))
        # The whole scenario validates at construction, not per grid point.
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", interval="weekly")
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", interval=0.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", work_s=0.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", downtime_s=-1.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", n_nodes=0)

    @pytest.mark.parametrize(
        "override",
        [dict(work_s=math.inf), dict(mttfs=(math.nan,)),
         dict(mttfs=(math.inf, math.nan)), dict(downtime_s=math.nan),
         dict(downtime_s=math.inf)],
        ids=repr,
    )
    def test_spec_rejects_non_finite(self, override):
        """Rejected at construction: an inf work used to fail inside a
        worker with an untyped ``OverflowError``; a NaN MTTF or downtime
        passed the sign checks."""
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="checkpoint", **override)

    def test_spec_json_round_trip_with_inf(self):
        spec = SweepSpec(kind="checkpoint", mttfs=(float("inf"), 3600.0))
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_run_checkpoint_sweep_driver(self, tb):
        pts = tb.run_sweep(
            "checkpoint", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
            mttfs=(float("inf"),), io_libraries=("hdf5",), work_s=120.0,
        )
        assert len(pts) == 2  # baseline + szx
        assert all(isinstance(p, CheckpointPoint) for p in pts)


class TestDalyAdvisor:
    @pytest.fixture(scope="class")
    def advice(self):
        advisor = DalyAdvisor(
            Testbed(scale="tiny"), cpu_name="plat8160", io_library="hdf5"
        )
        return advisor.advise(
            "cesm", mttf_s=7200.0, n_nodes=16, work_s=1800.0,
            codecs=("szx", "zfp"), bounds=(1e-3,),
        )

    def test_baseline_always_candidate(self, advice):
        assert any(p.codec is None for p in advice.candidates)

    def test_chosen_minimizes_expected_energy(self, advice):
        assert advice.expected_energy_j == min(
            p.expected_energy_j for p in advice.candidates
        )
        assert advice.compress == (advice.codec is not None)

    def test_flip_reporting_is_consistent(self, advice):
        assert advice.flips == (advice.compress != advice.single_write_compress)
        assert "lifetime" in advice.rationale

    def test_intervals_reported(self, advice):
        assert advice.interval_s > 0 and advice.baseline_interval_s > 0


class TestCheckpointCli:
    def test_sweep_kind_checkpoint_table(self, capsys):
        rc = main([
            "sweep", "--kind", "checkpoint", "--datasets", "cesm",
            "--codecs", "szx", "--bounds", "1e-3", "--io-libraries", "hdf5",
            "--scale", "tiny", "--mttfs", "inf,14400", "--work", "600",
            "--n-nodes", "4", "--n-chunks", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MTTF [s]" in out and "original" in out and "szx" in out

    def test_sweep_kind_checkpoint_json(self, capsys):
        import json

        rc = main([
            "sweep", "--kind", "checkpoint", "--datasets", "cesm",
            "--codecs", "szx", "--bounds", "1e-3", "--io-libraries", "hdf5",
            "--scale", "tiny", "--mttfs", "inf", "--work", "600", "--json",
        ])
        assert rc == 0
        records = [r for r in json.loads(capsys.readouterr().out)
                   if "__record__" in r]
        assert all(r["__record__"] == "CheckpointPoint" for r in records)
        assert records[0]["mttf_s"] == "inf"  # RFC-safe non-finite encoding

    def test_advise_checkpoint(self, capsys):
        rc = main([
            "advise", "--dataset", "cesm", "--checkpoint", "--scale", "tiny",
            "--cpu", "plat8160", "--mttf", "14400", "--n-nodes", "8",
            "--work", "1200", "--codecs", "szx", "--bounds", "1e-3",
        ])
        out = capsys.readouterr().out
        assert rc in (0, 1)  # exit code encodes the compress verdict
        assert "checkpointed lifetimes" in out

    def test_advise_dvfs_and_checkpoint_conflict(self, capsys):
        rc = main([
            "advise", "--dataset", "cesm", "--dvfs", "--checkpoint",
            "--scale", "tiny",
        ])
        assert rc == 2
