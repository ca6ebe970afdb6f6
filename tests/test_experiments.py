"""Testbed drivers: every figure's driver produces coherent records."""

import numpy as np
import pytest

from repro.core.experiments import Testbed


@pytest.fixture(scope="module")
def tb():
    return Testbed(scale="tiny", sample_interval=0.05)


class TestRoundtripCache:
    def test_memoized(self, tb):
        a = tb.roundtrip("nyx", "szx", 1e-3)
        b = tb.roundtrip("nyx", "szx", 1e-3)
        assert a is b

    def test_bound_is_verified(self, tb):
        rec = tb.roundtrip("cesm", "sz3", 1e-3)
        assert rec.max_rel_err <= 1e-3 * (1 + 1e-6)

    def test_lossless_roundtrip_checked(self, tb):
        rec = tb.roundtrip("cesm", "zstd", 0.0)
        assert rec.rel_bound == 0.0
        assert rec.max_rel_err == 0.0


class TestBatchedRoundtrips:
    """``roundtrips`` codes a (dataset, codec)'s bounds in one batched pass
    and returns, field for field, what lone ``roundtrip`` calls return."""

    @pytest.fixture()
    def fresh_memo(self, monkeypatch):
        import repro.core.experiments as experiments

        monkeypatch.setattr(experiments, "_ROUNDTRIP_CACHE", {})
        return experiments

    @staticmethod
    def _bounds(codec):
        from repro.compressors import get_compressor

        if get_compressor(codec).lossless:
            return (0.0, 1e-3)
        return (1e-4, 1e-3, 1e-2)

    def _compare(self, memo, tb, dataset, codec, bounds):
        batched = tb.roundtrips(dataset, codec, bounds)
        memo._ROUNDTRIP_CACHE.clear()
        alone = [tb.roundtrip(dataset, codec, b) for b in bounds]
        assert [repr(r) for r in batched] == [repr(r) for r in alone]
        return batched

    @pytest.mark.parametrize("dataset", ("cesm", "hacc"))
    def test_every_codec_matches_lone_roundtrips(self, fresh_memo, tb, dataset):
        from repro.compressors import available_compressors

        for codec in available_compressors():
            self._compare(fresh_memo, tb, dataset, codec, self._bounds(codec))

    def test_constant_field(self, fresh_memo, tb, monkeypatch):
        from repro.compressors import available_compressors

        monkeypatch.setattr(
            fresh_memo, "generate",
            lambda name, scale: np.full((6, 7, 8), 2.5, dtype=np.float32),
        )
        for codec in available_compressors():
            recs = self._compare(fresh_memo, tb, "const", codec, self._bounds(codec))
            assert all(r.max_rel_err == 0.0 for r in recs)

    def test_misses_only_duplicates_once(self, fresh_memo, tb, monkeypatch):
        coded = []
        real = Testbed._code_roundtrips
        monkeypatch.setattr(
            Testbed, "_code_roundtrips",
            lambda self, ds, codec, missing: coded.append(list(missing.values()))
            or real(self, ds, codec, missing),
        )
        hit = tb.roundtrip("cesm", "szx", 1e-3)
        recs = tb.roundtrips("cesm", "szx", (1e-2, 1e-3, 1e-2, 1e-4))
        assert coded == [[1e-3], [1e-2, 1e-4]]
        assert recs[1] is hit and recs[0] is recs[2]

    def test_failed_batch_raises_what_the_bound_raises_alone(self, fresh_memo, tb):
        from repro.errors import CompressionError

        with pytest.raises(CompressionError) as alone:
            tb.roundtrip("cesm", "szx", 1e-20)
        fresh_memo._ROUNDTRIP_CACHE.clear()
        with pytest.raises(CompressionError) as batched:
            tb.roundtrips("cesm", "szx", (1e-3, 1e-20, 1e-2))
        assert str(batched.value) == str(alone.value)
        # Raised outside the batch's handler: no chained context.
        assert batched.value.__context__ is None and batched.value.__cause__ is None
        # The bound before the failing one is memoized, as alone.
        assert ("cesm", "tiny", "szx", 1e-3) in fresh_memo._ROUNDTRIP_CACHE

    def test_batches_group_the_ops_priced_through_a_roundtrip(self, fresh_memo, tb):
        tb.roundtrip("cesm", "sz3", 1e-3)
        points = [
            ("io_point", dict(dataset="cesm", codec="szx", rel_bound=1e-3)),
            ("read_point", dict(dataset="cesm", codec="szx", rel_bound=1e-2)),
            ("io_point", dict(dataset="cesm", codec=None, rel_bound=None)),
            ("io_point", dict(dataset="hacc", codec="szx", rel_bound=1e-3)),
            ("io_point", dict(dataset="cesm", codec="sz3", rel_bound=1e-3)),
            ("serial_point", dict(dataset="cesm", codec="sz3", rel_bound=1e-2)),
            ("checkpoint_point", dict(dataset="cesm", codec="szx", rel_bound=1e-2)),
            ("dataset_point", dict(dataset="cesm", codec="szx", rel_bound=1e-4)),
        ]
        # hacc has one bound and sz3 one miss: nothing to batch for them.
        assert tb.roundtrip_batches(points) == [("cesm", "szx", [1e-3, 1e-2])]


class TestSerialDrivers:
    def test_serial_point_fields(self, tb):
        p = tb.serial_point("nyx", "szx", 1e-3, "plat8160")
        assert p.compress_time_s > 0 and p.decompress_time_s > 0
        assert p.total_energy_j == pytest.approx(
            p.compress_energy_j + p.decompress_energy_j
        )

    def test_energy_rises_as_bound_tightens(self, tb):
        e = [
            tb.serial_point("nyx", "sz3", eps, "plat8160").total_energy_j
            for eps in (1e-1, 1e-3, 1e-5)
        ]
        assert e[0] < e[1] < e[2]

    def test_sweep_shapes(self, tb):
        pts = tb.run_sweep(
            "serial", datasets=("nyx",), codecs=("szx", "zfp"), bounds=(1e-2,), cpus=("plat8160",)
        )
        assert len(pts) == 2

    def test_thread_sweep_energy_falls_for_szx(self, tb):
        pts = tb.run_sweep(
            "thread", datasets=("s3d",), codecs=("szx",), threads=(1, 64), cpus=("max9480",)
        )
        assert pts[1].total_energy_j < pts[0].total_energy_j

    def test_quality_table_rows(self, tb):
        rows = tb.run_sweep(
            "quality", datasets=("nyx",), codecs=("sz3", "szx"), bounds=(1e-1, 1e-5)
        )
        assert len(rows) == 4
        by = {(r.codec, r.rel_bound): r for r in rows}
        assert by[("sz3", 1e-1)].ratio > by[("sz3", 1e-5)].ratio
        assert by[("sz3", 1e-5)].psnr_db > by[("sz3", 1e-1)].psnr_db


class TestIODrivers:
    def test_original_baseline_larger_write_energy(self, tb):
        orig = tb.io_point("s3d", None, None, "hdf5", "max9480")
        comp = tb.io_point("s3d", "sz3", 1e-3, "hdf5", "max9480")
        assert orig.write_energy_j > comp.write_energy_j
        assert orig.compress_energy_j == 0.0

    def test_hdf5_beats_netcdf(self, tb):
        h = tb.io_point("hacc", "szx", 1e-3, "hdf5", "max9480")
        n = tb.io_point("hacc", "szx", 1e-3, "netcdf", "max9480")
        assert n.write_energy_j > 2.0 * h.write_energy_j

    def test_io_sweep_contains_baselines(self, tb):
        pts = tb.run_sweep(
            "io", datasets=("nyx",), codecs=("szx",), bounds=(1e-3,), io_libraries=("hdf5",)
        )
        assert any(p.codec is None for p in pts)
        assert any(p.codec == "szx" for p in pts)

    def test_write_energy_tracks_bytes(self, tb):
        """The Section VII mechanism: write energy ~ bytes (262x claim)."""
        orig = tb.io_point("s3d", None, None, "hdf5", "max9480")
        comp = tb.io_point("s3d", "sz2", 1e-3, "hdf5", "max9480")
        size_ratio = orig.bytes_written / comp.bytes_written
        energy_ratio = orig.write_energy_j / comp.write_energy_j
        assert energy_ratio == pytest.approx(size_ratio, rel=0.35)


class TestMultinodeDriver:
    def test_fig12_shape(self, tb):
        codecs = ("sz2", "sz3", "zfp", "qoz")
        res = tb.run_multinode(cores=(16, 512), codecs=codecs)
        by = {(r.codec, r.total_cores): r for r in res}
        # Crossover for every Fig. 12 codec: original cheap at 16 cores,
        # expensive at 512.
        for codec in codecs:
            assert by[(None, 16)].total_energy_j < by[(codec, 16)].total_energy_j
            assert by[(None, 512)].total_energy_j > by[(codec, 512)].total_energy_j

    def test_paper_25pct_multinode_band(self, tb):
        """Abstract: ~25% energy saving in multi-node settings (we accept a
        generous band: EBLC must save 20-80% at 512 cores)."""
        res = tb.run_multinode(cores=(512,), codecs=("sz3",))
        orig = next(r for r in res if r.codec is None)
        sz3 = next(r for r in res if r.codec == "sz3")
        saving = 1.0 - sz3.total_energy_j / orig.total_energy_j
        assert 0.2 < saving < 0.8


    def test_zero_payload_is_rejected_not_defaulted(self, tb):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="payload_nbytes must be positive"):
            tb.run_multinode(cores=(16,), codecs=(), payload_nbytes=0)


class TestInflationDriver:
    def test_fig13_linear_scaling(self, tb):
        pts = tb.run_inflation(factors=(1, 2), codecs=("sz3",), base_scale="tiny")
        by = {p.factor: p for p in pts}
        assert by[2].paper_gb == pytest.approx(8 * by[1].paper_gb)
        # Energy ~ bytes once overhead amortizes: factor 8 within a band.
        growth = by[2].total_energy_j / by[1].total_energy_j
        assert 5.0 < growth < 9.0


class TestFig1Driver:
    def test_lossless_vs_eblc(self, tb):
        rows = tb.run_sweep(
            "lossless",
            datasets=("isabel",),
            codecs=("sz2",),
            lossless_codecs=("zstd", "fpzip"),
            rel_bound=1e-2,
        )
        eblc = [r for r in rows if r.codec == "sz2"]
        lossless = [r for r in rows if r.codec != "sz2"]
        assert min(e.ratio for e in eblc) > max(l.ratio for l in lossless)
