"""DVFS subsystem: power/runtime scaling, sweep kind, advisor, seed identity.

The identity tests pin representative pre-DVFS records *byte for byte*
against golden values (and content-addressed store keys) computed from the
seed tree, so the frequency axis provably costs existing users nothing:
every default-frequency path — and every memoized cache entry — is
unchanged.
"""

import pytest

from repro.core.advisor import DvfsAdvisor, pareto_frontier
from repro.core.experiments import DvfsPoint, Testbed
from repro.energy.cpus import get_cpu
from repro.energy.measurement import EnergyMeter
from repro.energy.power import PowerModel
from repro.energy.throughput import ThroughputModel
from repro.errors import ConfigurationError
from repro.runtime.spec import SweepSpec
from repro.runtime.store import decode_record, encode_record, point_key
from repro.runtime.store import testbed_fingerprint as _fingerprint


@pytest.fixture(scope="module")
def tb():
    return Testbed(scale="tiny")


CPU = get_cpu("plat8160")


class TestPowerModelFreq:
    def test_identity_at_nominal(self):
        pm = PowerModel(CPU)
        pinned = PowerModel(CPU, freq_ghz=CPU.fnom_ghz)
        for cores in (0, 1, 24, 48):
            assert pinned.package_power(0, cores) == pm.package_power(0, cores)

    def test_idle_power_frequency_insensitive(self):
        lo = PowerModel(CPU, freq_ghz=CPU.fmin_ghz)
        hi = PowerModel(CPU, freq_ghz=CPU.fmax_ghz)
        assert lo.package_power(0, 0) == hi.package_power(0, 0) == CPU.idle_w
        assert lo.node_idle_power() == CPU.idle_w * CPU.sockets

    def test_dynamic_scales_with_gamma(self):
        pm = PowerModel(CPU)
        hi = PowerModel(CPU, freq_ghz=CPU.fmax_ghz)
        dyn_nom = pm.package_power(0, 48) - CPU.idle_w
        dyn_hi = hi.package_power(0, 48) - CPU.idle_w
        assert dyn_hi / dyn_nom == pytest.approx(
            (CPU.fmax_ghz / CPU.fnom_ghz) ** CPU.vf_gamma
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(CPU, freq_ghz=0.1)
        with pytest.raises(ValueError):
            PowerModel(CPU).freq_scale(99.0)

    def test_per_call_override(self):
        pm = PowerModel(CPU)
        assert pm.package_power(0, 48, freq_ghz=CPU.fmax_ghz) > pm.package_power(0, 48)

    def test_cpu_spec_envelope_validation(self):
        with pytest.raises(ValueError):
            get_cpu("plat8160").validate_freq(0.5)
        ladder = CPU.freq_ladder()
        assert ladder[0] == CPU.fmin_ghz and ladder[-1] == CPU.fmax_ghz
        assert CPU.fnom_ghz in ladder and len(ladder) == 5
        assert list(ladder) == sorted(ladder)


class TestThroughputFreq:
    def test_factor_is_one_at_nominal(self):
        model = ThroughputModel()
        assert model.freq_factor("sz3", None, CPU) == 1.0
        assert model.freq_factor("sz3", CPU.fnom_ghz, CPU) == 1.0

    def test_roofline_split(self):
        model = ThroughputModel()
        # At half the nominal clock the compute-bound fraction doubles.
        f = CPU.fnom_ghz / 2
        m = model.mem_bound_frac("sz3")
        assert model.freq_factor("sz3", f, CPU) == pytest.approx(m + (1 - m) * 2)
        # A memory-bound codec moves less than a compute-bound one.
        assert model.freq_factor("szx", f, CPU) < model.freq_factor("sz3", f, CPU)

    def test_runtime_monotone_in_freq(self):
        model = ThroughputModel()
        times = [
            model.runtime("sz3", "compress", 10**8, 1e-3, CPU, freq_ghz=f)
            for f in CPU.freq_ladder()
        ]
        assert times == sorted(times, reverse=True)

    def test_unknown_codec_mem_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel().mem_bound_frac("nope")


class TestSeedIdentity:
    """f == fnom (and no-frequency) paths are byte-identical to the seed."""

    def test_serial_point_golden(self, tb):
        sp = tb.serial_point("cesm", "sz3", 1e-3, "plat8160", 1)
        assert (
            sp.compress_time_s,
            sp.decompress_time_s,
            sp.compress_energy_j,
            sp.decompress_energy_j,
        ) == (4.298304, 2.577825882352941, 534.8371070000001, 320.75835900000004)

    def test_io_point_golden(self, tb):
        io = tb.io_point("cesm", "szx", 1e-3, "hdf5", "max9480")
        assert (
            io.bytes_written,
            io.write_time_s,
            io.write_energy_j,
            io.compress_time_s,
            io.compress_energy_j,
        ) == (
            203287500,
            0.2777389727870813,
            72.785199,
            0.29462999999999995,
            78.720893,
        )

    def test_pipeline_point_golden(self, tb):
        pp = tb.pipeline_point(
            "s3d", "sz2", 1e-3, "hdf5", "plat8160", n_chunks=4, overlap=True
        )
        assert (
            pp.compress_time_s,
            pp.write_time_s,
            pp.total_time_s,
            pp.compress_energy_j,
            pp.write_energy_j,
        ) == (
            332.1,
            2.4573432013636363,
            333.2739062855743,
            41323.13658,
            140.2610829999976,
        )

    def test_roundtrip_golden(self, tb):
        rt = tb.roundtrip("hacc", "zfp", 1e-2)
        assert (rt.ratio, rt.psnr_db, rt.compressed_nbytes) == (
            2.6675350048844026,
            58.79835163919236,
            6142,
        )

    def test_store_keys_unchanged(self, tb):
        """Content-addressed keys of every pre-DVFS kind match the seed."""
        fp = _fingerprint(tb)
        golden = {
            (
                "serial_point",
                ("cesm", "sz3", 1e-3, "plat8160", 1),
            ): "3353030b6505f3b83ba547180be98cccbd8a80ed6d589cdb7a1d2288b0c0d72e",
            (
                "io_point",
                ("cesm", "szx", 1e-3, "hdf5", "max9480"),
            ): "f4de6631f22e26b9822d103983975b942ffca80317735f3069d0158dbf3e677f",
            (
                "io_point",
                ("nyx", None, None, "netcdf", "plat8260m"),
            ): "19dc9121e1462a466c38219e1973ec8f6adc120a33f68f63c712587d585f8271",
            (
                "roundtrip",
                ("hacc", "zfp", 1e-2),
            ): "fa0f553089de9b3a42260e08c990cbc2a05e994140222505353faf69b078b2d4",
        }
        params = {
            "serial_point": ("dataset", "codec", "rel_bound", "cpu_name", "threads"),
            "io_point": ("dataset", "codec", "rel_bound", "io_library", "cpu_name"),
            "roundtrip": ("dataset", "codec", "rel_bound"),
        }
        for (op, values), expected in golden.items():
            kwargs = dict(zip(params[op], values))
            assert point_key(op, kwargs, fp) == expected, (op, kwargs)

    def test_pipeline_store_key_unchanged(self, tb):
        fp = _fingerprint(tb)
        kwargs = dict(
            dataset="s3d",
            codec="sz2",
            rel_bound=1e-3,
            io_library="hdf5",
            cpu_name="plat8160",
            n_chunks=4,
            overlap=True,
        )
        assert (
            point_key("pipeline_point", kwargs, fp)
            == "8b6a9bf91b82bbf4422541beea688a28117be9b813c188b63a43bb3c1848f39c"
        )

    def test_dvfs_point_at_fnom_equals_io_point(self, tb):
        io = tb.io_point("cesm", "sz3", 1e-3, "hdf5", "plat8160")
        dv = tb.dvfs_point("cesm", "sz3", 1e-3, CPU.fnom_ghz, "hdf5", "plat8160")
        assert dv.compress_time_s == io.compress_time_s
        assert dv.write_time_s == io.write_time_s
        assert dv.compress_energy_j == io.compress_energy_j
        assert dv.write_energy_j == io.write_energy_j
        assert dv.bytes_written == io.bytes_written

    def test_meter_at_fnom_identical(self):
        base = EnergyMeter(CPU).measure_compute(0.5, 8)
        pinned = EnergyMeter(CPU, freq_ghz=CPU.fnom_ghz).measure_compute(0.5, 8)
        assert pinned.energy_j == base.energy_j
        assert pinned.zone_energies_j == base.zone_energies_j


class TestDvfsPoint:
    def test_baseline_has_no_codec_cost(self, tb):
        p = tb.dvfs_point("cesm", None, None, 1.0, "hdf5", "plat8160")
        assert p.compress_time_s == 0.0 and p.compress_energy_j == 0.0
        assert p.ratio == 1.0 and p.psnr_db == float("inf")

    def test_rel_bound_required_with_codec(self, tb):
        with pytest.raises(ConfigurationError):
            tb.dvfs_point("cesm", "sz3", None, 1.0, "hdf5", "plat8160")

    def test_freq_validated(self, tb):
        with pytest.raises(ValueError):
            tb.dvfs_point("cesm", "sz3", 1e-3, 0.1, "hdf5", "plat8160")

    def test_transfer_time_frequency_insensitive(self, tb):
        lo = tb.dvfs_point("cesm", None, None, CPU.fmin_ghz, "hdf5", "plat8160")
        hi = tb.dvfs_point("cesm", None, None, CPU.fmax_ghz, "hdf5", "plat8160")
        assert lo.write_time_s == hi.write_time_s
        # ... but the write *power* is not: the serialize phase runs hotter.
        assert hi.write_energy_j > lo.write_energy_j

    def test_record_roundtrips_through_store(self, tb):
        p = tb.dvfs_point("cesm", "sz3", 1e-3, CPU.fmax_ghz, "hdf5", "plat8160")
        assert decode_record(encode_record(p)) == p

    def test_compute_bound_codec_slows_at_low_freq(self, tb):
        lo = tb.dvfs_point("cesm", "sz3", 1e-3, CPU.fmin_ghz, "hdf5", "plat8160")
        hi = tb.dvfs_point("cesm", "sz3", 1e-3, CPU.fmax_ghz, "hdf5", "plat8160")
        assert lo.compress_time_s > hi.compress_time_s
        assert lo.ratio == hi.ratio  # compression output is clock-independent


class TestDvfsSweep:
    def test_spec_expansion_and_driver(self, tb):
        pts = tb.run_sweep(
            "dvfs",
            datasets=("cesm",),
            codecs=("szx",),
            bounds=(1e-3,),
            freqs=(1.0, 2.1),
            io_libraries=("hdf5",),
            cpus=("plat8160",),
        )
        assert all(isinstance(p, DvfsPoint) for p in pts)
        # (baseline + 1 codec point) x 2 freqs
        assert len(pts) == 4
        assert {p.freq_ghz for p in pts} == {1.0, 2.1}
        assert {p.codec for p in pts} == {None, "szx"}

    def test_default_ladder_used_when_freqs_empty(self):
        spec = SweepSpec(
            kind="dvfs",
            datasets=("cesm",),
            codecs=("szx",),
            bounds=(1e-3,),
            cpus=("plat8160",),
            io_libraries=("hdf5",),
        )
        pts = spec.points()
        freqs = {dict(p.kwargs)["freq_ghz"] for p in pts}
        assert freqs == set(CPU.freq_ladder())

    def test_memoized_in_store(self, tb):
        kwargs = dict(
            datasets=("cesm",), codecs=("szx",), bounds=(1e-3,), freqs=(1.55,),
            io_libraries=("hdf5",), cpus=("plat8160",),
        )
        first = tb.run_sweep("dvfs", **kwargs)
        computed_before = tb.engine.stats.computed
        second = tb.run_sweep("dvfs", **kwargs)
        assert tb.engine.stats.computed == computed_before  # all cache hits
        assert first == second

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(kind="dvfs", freqs=(1.0, 2.0))
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_out_of_range_freq_fails_at_spec_construction(self):
        with pytest.raises(ConfigurationError, match=r"plat8160.*\[1\.0, 3\.7\]"):
            SweepSpec(kind="dvfs", cpus=("plat8160",), freqs=(2.1, 9.9))
        SweepSpec(kind="dvfs", cpus=("plat8160",), freqs=(CPU.fmin_ghz, CPU.fmax_ghz))


class TestParetoFrontier:
    def test_dominated_points_removed(self, tb):
        pts = tb.run_sweep(
            "dvfs", datasets=("cesm",), codecs=("sz3", "szx"), bounds=(1e-3,),
            io_libraries=("hdf5",), cpus=("plat8160",),
        )
        frontier = pareto_frontier(pts)
        assert len(frontier) >= 2
        # Sorted fastest-first; energy strictly decreases along the frontier.
        times = [p.total_time_s for p in frontier]
        energies = [p.total_energy_j for p in frontier]
        assert times == sorted(times)
        assert energies == sorted(energies, reverse=True)
        # No frontier point is dominated by any grid point.
        for fp_ in frontier:
            for p in pts:
                assert not (
                    p.total_time_s < fp_.total_time_s - 1e-12
                    and p.total_energy_j < fp_.total_energy_j - 1e-12
                )


class TestDvfsAdvisor:
    @pytest.fixture(scope="class")
    def advice(self):
        tb = Testbed(scale="tiny")
        return DvfsAdvisor(tb, cpu_name="plat8160").advise(
            "cesm", codecs=("sz3", "szx"), bounds=(1e-3,)
        )

    def test_non_degenerate_tradeoff(self, advice):
        """Acceptance: frontier >= 2 points; energy-optimal f != fnom for a
        compute-bound codec."""
        assert len(advice.pareto) >= 2
        tb = Testbed(scale="tiny")
        family = [
            tb.dvfs_point("cesm", "sz3", 1e-3, f, "hdf5", "plat8160")
            for f in CPU.freq_ladder()
        ]
        best = min(family, key=lambda p: p.total_energy_j)
        assert best.freq_ghz != CPU.fnom_ghz

    def test_advice_fields_consistent(self, advice):
        assert advice.compress == (advice.codec is not None)
        assert advice.energy_j <= advice.baseline_energy_j
        assert advice.energy_saving_j == pytest.approx(
            advice.baseline_energy_j - advice.energy_j
        )
        assert advice.prefer_race_to_idle == (
            advice.race_to_idle_energy_j <= advice.slow_and_steady_energy_j
        )
        assert advice.chosen in advice.pareto or advice.chosen.total_energy_j == min(
            p.total_energy_j for p in advice.pareto
        )

    def test_quality_floor_filters(self):
        tb = Testbed(scale="tiny")
        advice = DvfsAdvisor(tb, cpu_name="plat8160").advise(
            "cesm", psnr_min_db=1e9, codecs=("sz3",), bounds=(1e-1,)
        )
        # Nothing lossy can meet an absurd floor: advise writing uncompressed.
        assert not advice.compress and advice.codec is None

    def test_rationale_mentions_choice(self, advice):
        assert "GHz" in advice.rationale and "Pareto" in advice.rationale

    def test_time_objective_picks_fastest(self):
        tb = Testbed(scale="tiny")
        advisor = DvfsAdvisor(tb, cpu_name="plat8160")
        by_time = advisor.advise(
            "cesm", codecs=("sz3", "szx"), bounds=(1e-3,), objective="time"
        )
        by_energy = advisor.advise(
            "cesm", codecs=("sz3", "szx"), bounds=(1e-3,), objective="energy"
        )
        assert by_time.time_s <= by_energy.time_s
        assert by_energy.energy_j <= by_time.energy_j
        assert by_time.objective == "time"

    def test_ratio_objective_prefers_codec(self):
        tb = Testbed(scale="tiny")
        advice = DvfsAdvisor(tb, cpu_name="plat8160").advise(
            "cesm", codecs=("sz3",), bounds=(1e-3,), objective="ratio"
        )
        assert advice.compress and advice.codec == "sz3"

    def test_invalid_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            DvfsAdvisor(Testbed(scale="tiny")).advise("cesm", objective="edp")

    def test_strict_time_filters_slow_codec_points(self):
        tb = Testbed(scale="tiny")
        advice = DvfsAdvisor(tb, cpu_name="plat8160").advise(
            "cesm",
            codecs=("sz3", "szx"),
            bounds=(1e-3,),
            require_time_benefit=True,
        )
        if advice.compress:  # any surviving codec point beats the baseline
            assert advice.time_s <= advice.baseline_time_s
            assert advice.energy_j <= advice.baseline_energy_j

    def test_strict_time_does_not_truncate_policy_family(self):
        """The race/steady window is defined by the chosen config's slowest
        evaluated clock; the strict-time filter must not redefine it by
        dropping slow-clock family members."""
        tb = Testbed(scale="tiny")
        advisor = DvfsAdvisor(tb, cpu_name="plat8160", io_library="netcdf")
        kwargs = dict(codecs=("szx",), bounds=(1e-3,), freqs=(1.0, 2.1, 3.7))
        loose = advisor.advise("hacc", **kwargs)
        strict = advisor.advise("hacc", require_time_benefit=True, **kwargs)
        if strict.codec == loose.codec and strict.rel_bound == loose.rel_bound:
            assert strict.slow_and_steady_energy_j == loose.slow_and_steady_energy_j
            assert strict.race_to_idle_energy_j == loose.race_to_idle_energy_j

    def test_disk_store_entries_are_rfc_strict_json(self, tb, tmp_path):
        """Baseline points carry psnr_db = +inf; the persisted cache entry
        must stay parseable by strict RFC 8259 parsers (no Infinity token)."""
        import json

        from repro.runtime.store import ResultStore

        store = ResultStore(cache_dir=tmp_path)
        p = tb.dvfs_point("cesm", None, None, 1.0, "hdf5", "plat8160")
        store.put("somekey", p)
        text = (tmp_path / "somekey.json").read_text()

        def _reject(_):
            raise ValueError("non-RFC constant")

        json.loads(text, parse_constant=_reject)  # must not raise
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get("somekey") == p  # inf round-trips through the tag

    def test_deadline_policy_fields_consistent(self, advice):
        window_cost = min(
            advice.race_to_idle_energy_j, advice.slow_and_steady_energy_j
        )
        assert advice.chosen_beats_both_policies == (
            advice.chosen_deadline_energy_j < window_cost
        )
        # Padding with idle time can only add energy.
        assert advice.chosen_deadline_energy_j >= advice.energy_j
