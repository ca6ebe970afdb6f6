"""Core framework: Eq. 3-5 conditions, analyzer, advisor, extrapolation, report."""

import numpy as np
import pytest

from repro.core import Advisor, Testbed, TradeoffAnalyzer
from repro.core.advisor import DalyAdvisor
from repro.core.extrapolation import (
    devices_needed,
    device_reduction,
    embodied_carbon_saving_fraction,
    project_facility,
)
from repro.core.formulation import BenefitConditions, CompressionPlan
from repro.core.report import format_series, format_stacked_bars, format_table, si
from repro.data.registry import dataset_names
from repro.errors import ConfigurationError
from repro.iolib.devices import get_device


def _conditions(**overrides):
    base = dict(
        compress_time_s=1.0,
        write_time_compressed_s=0.5,
        write_time_orig_s=2.0,
        compress_energy_j=100.0,
        write_energy_compressed_j=50.0,
        write_energy_orig_j=200.0,
        psnr_db=80.0,
        psnr_min_db=60.0,
    )
    base.update(overrides)
    return BenefitConditions(**base)


class TestBenefitConditions:
    def test_all_beneficial(self):
        c = _conditions()
        assert c.time_beneficial and c.energy_beneficial and c.quality_acceptable
        assert c.beneficial
        assert c.net_energy_saving_j == pytest.approx(50.0)
        assert c.net_time_saving_s == pytest.approx(0.5)

    def test_eq3_time_fails(self):
        c = _conditions(compress_time_s=5.0)
        assert not c.time_beneficial and not c.beneficial

    def test_eq4_energy_fails(self):
        c = _conditions(compress_energy_j=500.0)
        assert not c.energy_beneficial and not c.beneficial
        assert c.net_energy_saving_j < 0

    def test_eq5_quality_fails(self):
        c = _conditions(psnr_db=30.0)
        assert not c.quality_acceptable and not c.beneficial

    def test_weak_io_condition(self):
        c = _conditions(compress_energy_j=1e9)
        assert c.io_energy_beneficial  # E_w(D') <= E_w(D) regardless of E_c


@pytest.fixture(scope="module")
def tiny_testbed():
    return Testbed(scale="tiny", sample_interval=0.05)


class TestTradeoffAnalyzer:
    def test_records_carry_conditions(self, tiny_testbed):
        analyzer = TradeoffAnalyzer(tiny_testbed)
        records = analyzer.evaluate(
            "nyx", codecs=("szx", "sz3"), bounds=(1e-2, 1e-4), psnr_min_db=40.0
        )
        assert len(records) == 4
        for r in records:
            assert r.ratio > 0
            assert r.conditions.write_energy_orig_j > 0
            assert isinstance(r.plan, CompressionPlan)

    def test_psnr_floor_respected(self, tiny_testbed):
        analyzer = TradeoffAnalyzer(tiny_testbed)
        records = analyzer.evaluate(
            "nyx", codecs=("sz3",), bounds=(1e-1, 1e-5), psnr_min_db=60.0
        )
        loose, tight = records
        assert not loose.conditions.quality_acceptable
        assert tight.conditions.quality_acceptable


class TestAdvisor:
    def test_honest_refusal_when_infeasible(self, tiny_testbed):
        """On a fast PFS, single-stream compression rarely wins (paper VII)."""
        advisor = Advisor(TradeoffAnalyzer(tiny_testbed, io_library="hdf5"))
        rec = advisor.recommend(
            "nyx", psnr_min_db=200.0, codecs=("sz3",), bounds=(1e-2,)
        )
        assert not rec.should_compress
        assert "uncompressed" in rec.rationale

    def test_recommends_under_netcdf_pressure(self, tiny_testbed):
        """Slow I/O paths tip Eq. 3-4 toward compression."""
        advisor = Advisor(TradeoffAnalyzer(tiny_testbed, io_library="netcdf"))
        rec = advisor.recommend(
            "s3d",
            psnr_min_db=40.0,
            codecs=("szx", "zfp", "sz3"),
            bounds=(1e-2, 1e-3),
            require_time_benefit=False,
        )
        assert rec.should_compress
        assert rec.record.conditions.energy_beneficial

    def test_ratio_objective_maximizes_ratio(self, tiny_testbed):
        advisor = Advisor(TradeoffAnalyzer(tiny_testbed, io_library="netcdf"))
        rec = advisor.recommend(
            "s3d",
            psnr_min_db=20.0,
            objective="ratio",
            codecs=("szx", "sz3"),
            bounds=(1e-1, 1e-2),
            require_time_benefit=False,
        )
        if rec.should_compress:
            for alt in rec.alternatives:
                assert rec.record.ratio >= alt.ratio

    def test_invalid_objective(self, tiny_testbed):
        advisor = Advisor(TradeoffAnalyzer(tiny_testbed))
        with pytest.raises(ConfigurationError):
            advisor.recommend("nyx", objective="vibes")


class TestOneGrid:
    """The plain advisor prices compress and write on the same data.

    s3d is profiled on one field of eleven, so a compress cost taken from
    the ``serial`` kind sits next to the write of the whole snapshot; every
    Eq. 3-5 input must come from the write path the ``io`` kind prices.
    """

    GRID = dict(codecs=("szx", "zfp", "sz3"), bounds=(1e-1, 1e-3))

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_conditions_match_io_kind(self, tiny_testbed, dataset):
        analyzer = TradeoffAnalyzer(
            tiny_testbed, cpu_name="plat8160", io_library="netcdf"
        )
        records = analyzer.evaluate(dataset, psnr_min_db=50.0, **self.GRID)
        io = tiny_testbed.run_sweep(
            "io", datasets=(dataset,), cpus=("plat8160",),
            io_libraries=("netcdf",), include_baseline=True, **self.GRID,
        )
        base, by = io[0], {(p.codec, p.rel_bound): p for p in io[1:]}
        assert len(records) == len(by)
        for r in records:
            p = by[(r.plan.codec, r.plan.rel_bound)]
            c = r.conditions
            assert c.compress_time_s == p.compress_time_s, r.plan
            assert c.compress_energy_j == p.compress_energy_j, r.plan
            assert c.write_time_compressed_s == p.write_time_s, r.plan
            assert c.write_energy_compressed_j == p.write_energy_j, r.plan
            assert c.write_time_orig_s == base.write_time_s
            assert c.write_energy_orig_j == base.write_energy_j

    @pytest.mark.parametrize("dataset", dataset_names())
    @pytest.mark.parametrize("io_library", ["hdf5", "netcdf"])
    def test_single_write_verdicts_agree(self, tiny_testbed, dataset, io_library):
        scenario = dict(cpu_name="plat8160", io_library=io_library)
        rec = Advisor(TradeoffAnalyzer(tiny_testbed, **scenario)).recommend(
            dataset, psnr_min_db=50.0, require_time_benefit=False, **self.GRID
        )
        daly = DalyAdvisor(tiny_testbed, **scenario).advise(
            dataset, psnr_min_db=50.0, **self.GRID
        )
        assert rec.should_compress == daly.single_write_compress


class TestExtrapolation:
    def test_devices_needed(self):
        ssd = get_device("ssd-15tb")
        assert devices_needed(15.36e12, ssd) == 1
        assert devices_needed(15.37e12, ssd) == 2
        assert devices_needed(0, ssd) == 0

    def test_device_reduction(self):
        assert device_reduction(100.0) == 100.0
        with pytest.raises(ConfigurationError):
            device_reduction(0.5)

    def test_embodied_carbon_paper_claim(self):
        """Two orders of magnitude fewer devices -> ~70-75% rack embodied cut
        (paper Section VII), bounded by the SSD fraction 0.80."""
        ssd = get_device("ssd-15tb")
        saving = embodied_carbon_saving_fraction(100.0, ssd)
        assert saving == pytest.approx(0.792, rel=1e-3)
        hdd = get_device("hdd-18tb")
        assert embodied_carbon_saving_fraction(100.0, hdd) == pytest.approx(
            0.406, rel=1e-3
        )

    def test_facility_projection(self):
        proj = project_facility(
            daily_output_tb=100.0,
            compression_ratio=50.0,
            io_energy_reduction=20.0,
            write_energy_j_per_tb=5e5,
        )
        assert proj.devices_compressed < proj.devices_uncompressed
        assert proj.devices_uncompressed == pytest.approx(
            50 * proj.devices_compressed, rel=0.15
        )
        assert proj.annual_io_energy_saved_j == pytest.approx(
            100 * 5e5 * 365 * 0.95
        )

    def test_facility_validation(self):
        with pytest.raises(ConfigurationError):
            project_facility(0, 10, 10, 1)
        with pytest.raises(ConfigurationError):
            project_facility(1, 10, 0.5, 1)


class TestReport:
    def test_si_formatting(self):
        assert si(1234.0, "J") == "1.23 kJ"
        assert si(0.0, "J") == "0 J"
        assert si(5e9, "B") == "5 GB"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series(
            "Fig X", "eps", ["1e-1", "1e-3"], {"sz3": [1.0, 2.0], "zfp": [3.0, 4.0]}
        )
        assert "sz3" in out and "zfp" in out and "1e-3" in out

    def test_stacked_bars(self):
        out = format_stacked_bars(
            "E", "codec", [("sz3", 10.0, 5.0), ("zfp", 2.0, 1.0)]
        )
        assert "sz3" in out and "#" in out and "=" in out

    def test_stacked_bars_empty(self):
        assert format_stacked_bars("E", "x", []) == "E"
