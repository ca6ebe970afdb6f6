"""Energy stack: CPU catalogue, power model, RAPL counters, PAPI sampling."""

import numpy as np
import pytest

from repro.energy import CPUS, EnergyMeter, PowerModel, get_cpu
from repro.energy.cpus import PAPER_CPUS
from repro.energy.measurement import EnergyReport, Phase
from repro.energy.papi import tick_split
from repro.energy.rapl import DEFAULT_MAX_ENERGY_RANGE_UJ, counter_after, integrate_phase
from repro.errors import ConfigurationError

from hostile import outcome
from meter_cases import INTERVALS, METER_CPUS, tick_durations
from reference.energy import FLOOR, reference_window


class TestCpus:
    def test_table1_entries(self):
        assert set(PAPER_CPUS) == set(CPUS)
        m = get_cpu("max9480")
        assert m.cores == 112 and m.tdp_w == 350.0
        s = get_cpu("plat8160")
        assert s.cores == 48 and s.tdp_w == 270.0
        p = get_cpu("plat8260m")
        assert p.cores == 96 and p.sockets == 4 and p.tdp_w == 165.0

    def test_cores_per_socket(self):
        assert get_cpu("plat8260m").cores_per_socket == 24

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_cpu("epyc")


class TestPowerModel:
    def test_idle_floor(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        assert pm.node_power(0) == pytest.approx(cpu.sockets * cpu.idle_w)

    def test_full_load_hits_tdp(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        assert pm.node_power(cpu.cores) == pytest.approx(cpu.sockets * cpu.tdp_w)

    def test_monotone_in_cores(self):
        cpu = get_cpu("max9480")
        pm = PowerModel(cpu)
        powers = [pm.node_power(c) for c in range(0, cpu.cores + 1, 8)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_sublinear_dynamic(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        half = pm.node_power(cpu.cores_per_socket // 2) - pm.node_power(0)
        full = pm.node_power(cpu.cores_per_socket) - pm.node_power(0)
        assert half > 0.5 * full  # alpha < 1 concavity

    def test_socket_filling_order(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        # One core: only package 0 above idle.
        assert pm.package_power(0, 1) > cpu.idle_w
        assert pm.package_power(1, 1) == pytest.approx(cpu.idle_w)

    def test_activity_scales_dynamic_only(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        idle = pm.node_power(8, activity=0.0)
        assert idle == pytest.approx(cpu.sockets * cpu.idle_w)
        assert pm.node_power(8, activity=0.5) < pm.node_power(8, activity=1.0)

    def test_validation(self):
        pm = PowerModel(get_cpu("plat8160"))
        with pytest.raises(ConfigurationError):
            pm.node_power(-1)
        with pytest.raises(ConfigurationError):
            pm.node_power(9999)
        with pytest.raises(ConfigurationError):
            pm.node_power(1, activity=2.0)
        with pytest.raises(ConfigurationError):
            PowerModel(get_cpu("plat8160"), alpha=0.0)

    @pytest.mark.parametrize("freq", [0.1, 99.0])
    def test_per_call_freq_outside_envelope_is_typed(self, freq):
        pm = PowerModel(get_cpu("plat8160"))
        with pytest.raises(ConfigurationError, match="outside DVFS range"):
            pm.package_power(0, 4, freq_ghz=freq)
        with pytest.raises(ConfigurationError, match="outside DVFS range"):
            pm.node_power(4, freq_ghz=freq)


class TestRapl:
    def test_counters_accumulate(self):
        cpu = get_cpu("plat8160")
        counters = [0] * cpu.sockets
        _, now = integrate_phase(
            PowerModel(cpu), counters, [1 << 62] * cpu.sockets, 0.0, 1.0, 0, 1.0, 1, 0.0
        )
        assert now == 1.0
        assert sum(counters) / 1e6 == pytest.approx(2 * 55.0, rel=1e-6)  # idle

    def test_eq6_sums_packages(self):
        report = EnergyMeter(get_cpu("plat8260m")).measure([Phase(2.0, 1)])
        assert len(report.zone_energies_j) == 4
        assert report.energy_j == sum(report.zone_energies_j)

    def test_wraparound(self):
        before = counter_after(0, 0.0009, 1, 1000)  # 900 uJ
        after = counter_after(before, 0.0002, 1, 1000)  # wraps past 1000
        assert (before, after) == (900, 100)
        assert counter_after(0, 0.0009, 3, 1000) == 700

    def test_negative_time_rejected(self):
        cpu = get_cpu("plat8160")
        for dt, tail, ticks in ((-1.0, 0.0, 1), (0.01, -1.0, 1), (0.01, 0.0, -1)):
            with pytest.raises(ConfigurationError):
                integrate_phase(
                    PowerModel(cpu), [0, 0], [1000, 1000], 0.0, dt, 0, 1.0, ticks, tail
                )
        with pytest.raises(ConfigurationError):
            counter_after(0, -1.0, 1, 1000)


class TestPapiMonitor:
    """The PAPI sampling rules, through the meter."""

    def test_discrete_sampling_energy(self):
        meter = EnergyMeter(get_cpu("plat8160"), sample_interval=0.01)
        report = meter.measure([Phase(0.1, 48)])
        # Constant power: discrete sum equals P*t exactly.
        assert report.energy_j == pytest.approx(2 * 270.0 * 0.1, rel=1e-9)
        assert report.runtime_s == pytest.approx(0.1, rel=1e-9)
        assert report.n_samples == 11  # start + 10 ticks

    def test_partial_final_interval_sampled(self):
        meter = EnergyMeter(get_cpu("plat8160"), sample_interval=0.01)
        report = meter.measure([Phase(0.015, 0)])
        assert report.energy_j == pytest.approx(110.0 * 0.015, rel=1e-9)
        assert report.n_samples == 3  # start, one tick, the partial tail


class TestEnergyMeter:
    def test_measure_compute(self):
        meter = EnergyMeter(get_cpu("plat8160"))
        report = meter.measure_compute(1.0, threads=48)
        assert report.energy_j == pytest.approx(540.0, rel=1e-9)
        assert report.avg_power_w == pytest.approx(540.0, rel=1e-9)

    def test_phase_concatenation(self):
        meter = EnergyMeter(get_cpu("plat8160"))
        a = meter.measure([Phase(0.5, 48, 1.0)])
        b = meter.measure([Phase(0.5, 0, 1.0)])
        both = a + b
        assert both.energy_j == pytest.approx(a.energy_j + b.energy_j)
        assert both.runtime_s == pytest.approx(1.0)

    def test_zone_split_matches_total(self):
        meter = EnergyMeter(get_cpu("max9480"))
        report = meter.measure([Phase(0.25, 10, 1.0)])
        assert sum(report.zone_energies_j) == pytest.approx(report.energy_j, rel=1e-6)

    def test_add_rejects_mismatched_zone_counts(self):
        """zip() used to silently truncate the per-zone split on mismatch."""
        from repro.errors import ConfigurationError

        a = EnergyMeter(get_cpu("plat8160")).measure([Phase(0.2, 4, 1.0)])
        b = EnergyMeter(get_cpu("plat8260m")).measure([Phase(0.2, 4, 1.0)])
        assert len(a.zone_energies_j) != len(b.zone_energies_j)
        with pytest.raises(ConfigurationError):
            a + b

    def test_compose_phases_overlays_concurrent_intervals(self):
        from repro.energy.measurement import Interval, compose_phases

        phases = compose_phases(
            [
                Interval(0.0, 2.0, 1, 1.0, "compress"),
                Interval(1.0, 3.0, 1, 0.1, "write"),
            ],
            max_cores=32,
        )
        assert [p.duration_s for p in phases] == pytest.approx([1.0, 1.0, 1.0])
        # Overlapped middle segment: both cores, core-weighted mean activity.
        assert phases[1].active_cores == 2
        assert phases[1].activity == pytest.approx(0.55)
        assert [p.label for p in phases] == ["compress", "compress", "write"]

    def test_compose_phases_clamps_to_cores_and_fills_gaps(self):
        from repro.energy.measurement import Interval, compose_phases

        phases = compose_phases(
            [
                Interval(0.0, 1.0, 3, 1.0, "a"),
                Interval(0.0, 1.0, 3, 1.0, "b"),
                Interval(2.0, 3.0, 1, 0.5, "c"),
            ],
            max_cores=4,
        )
        assert phases[0].active_cores == 4  # 6 requested, clamped
        assert phases[0].activity == 1.0  # load saturates
        assert phases[1].active_cores == 0 and phases[1].label == "idle"
        assert sum(p.duration_s for p in phases) == pytest.approx(3.0)

    def test_composed_timeline_is_measurable(self):
        from repro.energy.measurement import Interval, compose_phases

        cpu = get_cpu("plat8160")
        meter = EnergyMeter(cpu)
        phases = compose_phases(
            [Interval(0.0, 0.5, 2, 1.0, "compress"), Interval(0.3, 0.8, 1, 0.2, "write")],
            max_cores=cpu.cores,
        )
        report = meter.measure(phases)
        assert report.runtime_s == pytest.approx(0.8, rel=1e-9)
        assert report.energy_j > 0

    def test_more_threads_less_energy_for_fixed_work(self):
        """The Fig. 10 mechanism: shorter runtime beats higher power."""
        from repro.energy import ThroughputModel

        cpu = get_cpu("max9480")
        tm = ThroughputModel()
        meter = EnergyMeter(cpu)
        e = {}
        for threads in (1, 64):
            t = tm.runtime("szx", "compress", 10**9, 1e-3, cpu, threads)
            e[threads] = meter.measure_compute(t, threads).energy_j
        assert e[64] < e[1]


class TestComposePhasesConservation:
    """Property: overlaying intervals conserves the core.activity load
    integral — the energy the overlaid timeline deposits equals the sum of
    what the input intervals would deposit alone (no max_cores clamp)."""

    @staticmethod
    def _load_integral_intervals(intervals):
        from repro.energy.measurement import Interval  # noqa: F401

        return sum(
            (iv.end_s - iv.start_s) * iv.active_cores * iv.activity
            for iv in intervals
        )

    @staticmethod
    def _load_integral_phases(phases):
        return sum(p.duration_s * p.active_cores * p.activity for p in phases)

    def test_energy_conserved_under_arbitrary_overlap(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.energy.measurement import Interval, compose_phases

        starts = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
        # Durations include exact zero: zero-length intervals must vanish
        # without contributing energy or phantom segments.
        durations = st.one_of(
            st.just(0.0), st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)
        )
        interval = st.builds(
            lambda s, d, c, a: Interval(s, s + d, c, a, "x"),
            starts,
            durations,
            st.integers(0, 8),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )

        @settings(max_examples=200, deadline=None)
        @given(st.lists(interval, min_size=0, max_size=12))
        def check(intervals):
            phases = compose_phases(intervals)
            want = self._load_integral_intervals(intervals)
            got = self._load_integral_phases(phases)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-7)
            # The composed timeline spans first start .. last end exactly.
            live = [iv for iv in intervals if iv.end_s - iv.start_s > 1e-12]
            if live:
                span = max(iv.end_s for iv in live) - min(iv.start_s for iv in live)
                assert sum(p.duration_s for p in phases) == pytest.approx(
                    span, rel=1e-9, abs=1e-9
                )
            else:
                assert phases == []

        check()

    def test_zero_length_intervals_drop_out(self):
        from repro.energy.measurement import Interval, compose_phases

        a = Interval(0.0, 1.0, 2, 0.5, "a")
        z = Interval(0.5, 0.5, 7, 1.0, "z")
        assert compose_phases([a, z]) == compose_phases([a])


# -- closed-form sampler ------------------------------------------------------

def closed_form_window(power, interval, phases, max_range):
    """The same window as :func:`reference_window` through ``tick_split``
    and ``integrate_phase`` on bare counters, one call per phase."""
    counters = [0] * power.cpu.sockets
    ranges = [max_range] * len(counters)
    now, n_samples = 0.0, 1
    for duration, cores, activity in phases:
        ticks, tail = tick_split(duration, interval)
        if ticks or tail:
            _, now = integrate_phase(
                power, counters, ranges, now, interval, cores, activity, ticks, tail
            )
            n_samples += ticks + (tail > 0)
    return now, counters, n_samples


def assert_bit_identical(cpu, interval, phases, max_range):
    power = PowerModel(cpu)
    assert closed_form_window(power, interval, phases, max_range) == reference_window(
        power, interval, phases, max_range
    )


def _windows():
    """(cpu, interval, phases, wrap range) covering every Table-I CPU."""
    from hypothesis import strategies as st

    @st.composite
    def window(draw):
        cpu = get_cpu(draw(st.sampled_from(sorted(CPUS))))
        interval = draw(st.sampled_from(INTERVALS))
        phase = st.tuples(
            tick_durations(interval),
            st.integers(0, cpu.cores),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )
        phases = draw(st.lists(phase, min_size=1, max_size=4))
        # Small ranges wrap the counters mid-phase, several times over.
        max_range = draw(
            st.one_of(
                st.just(262_143_328_850), st.integers(1_000, 50_000_000)
            )
        )
        return cpu, interval, phases, max_range

    return window()


class TestClosedFormSampler:
    """The closed-form sampler equals the per-tick loop bit for bit."""

    def test_bit_identical_to_per_tick_loop(self):
        from hypothesis import given, settings

        @settings(max_examples=300, deadline=None)
        @given(_windows())
        def check(window):
            assert_bit_identical(*window)

        check()

    def test_bit_identical_across_chunk_boundaries(self):
        """Phases many times longer than one numpy chunk."""
        from hypothesis import given, settings

        from repro.energy import rapl as rapl_module

        @settings(max_examples=60, deadline=None)
        @given(_windows())
        def check(window):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rapl_module, "STEP_CHUNK", 7)
                assert_bit_identical(*window)

        check()

    def test_long_phase_at_real_chunk_size(self):
        from repro.energy.rapl import STEP_CHUNK

        cpu = get_cpu("plat8160")
        duration = (STEP_CHUNK + 1234) * 0.01 + 0.004
        assert_bit_identical(cpu, 0.01, [(duration, 17, 0.7)], 262_143_328_850)

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_exact_multiples_on_every_cpu(self, interval):
        for name in sorted(CPUS):
            cpu = get_cpu(name)
            phases = [(k * interval, c, 0.9) for k, c in ((1, 0), (7, 1), (40, cpu.cores))]
            assert_bit_identical(cpu, interval, phases, 262_143_328_850)

    def test_advance_is_the_one_tick_case(self):
        """One tick and no tail deposits one quantum and adds one step."""
        cpu = get_cpu("plat8260m")
        power, ranges = PowerModel(cpu), [5_000_000] * cpu.sockets
        got, want, now = [0] * cpu.sockets, [0] * cpu.sockets, 0.0
        steps = [(0.01, 3, 1.0), (0.003, 50, 0.2), (0.25, 96, 0.9), (1e-13, 0, 0.0)]
        for dt, cores, activity in steps:
            _, clock = integrate_phase(power, got, ranges, now, dt, cores, activity, 1, 0.0)
            for p in range(cpu.sockets):
                q = round(power.package_power(p, cores, activity) * dt * 1e6)
                want[p] = (want[p] + q) % 5_000_000
            now += dt
            assert clock == now
        assert got == want

    def test_package_power_once_per_phase_per_socket(self, monkeypatch):
        calls = []
        original = PowerModel.package_power

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PowerModel, "package_power", counting)
        cpu = get_cpu("plat8260m")
        EnergyMeter(cpu).measure([Phase(12.345, 30), Phase(0.004, 2), Phase(0.0, 1)])
        assert sorted(calls) == sorted(list(range(cpu.sockets)) * 2)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestSamplerGuards:
    @pytest.mark.parametrize("duration", NON_FINITE, ids=repr)
    def test_run_phase_rejects_non_finite_duration(self, duration):
        """A non-finite step or tail never reaches the counters."""
        power, counters = PowerModel(get_cpu("plat8160")), [0, 0]
        for dt, tail in ((duration, 0.0), (0.01, duration)):
            exc = outcome(
                lambda: integrate_phase(power, counters, [1000] * 2, 0.0, dt, 1, 1.0, 1, tail)
            )
            assert isinstance(exc, ConfigurationError)
        assert counters == [0, 0]

    @pytest.mark.parametrize("duration", NON_FINITE, ids=repr)
    def test_meter_rejects_non_finite_duration(self, duration):
        meter = EnergyMeter(get_cpu("max9480"))
        for call in (
            lambda: meter.measure_compute(duration, 1),
            lambda: meter.measure_split([Phase(duration, 1)]),
        ):
            assert isinstance(outcome(call), ConfigurationError)

    @pytest.mark.parametrize("interval", [0, 0.0, -0.01] + NON_FINITE, ids=repr)
    def test_bad_sample_interval_rejected_up_front(self, interval):
        from repro.core.experiments import Testbed

        cpu = get_cpu("plat8160")
        with pytest.raises(ConfigurationError):
            EnergyMeter(cpu, sample_interval=interval)
        exc = outcome(
            lambda: Testbed(scale="tiny", sample_interval=interval).io_point(
                "cesm", "szx", 1e-3
            ),
        )
        assert isinstance(exc, ConfigurationError)

    @pytest.mark.parametrize("duration", NON_FINITE + [-0.01], ids=repr)
    def test_tick_split_rejects_bad_duration(self, duration):
        exc = outcome(lambda: tick_split(duration, 0.01))
        assert isinstance(exc, ConfigurationError)

    def test_interval_below_float_resolution_rejected(self):
        meter = EnergyMeter(get_cpu("plat8160"), sample_interval=1e-300)
        exc = outcome(lambda: meter.measure([Phase(1.0, 1)]))
        assert isinstance(exc, ConfigurationError)

    #: sha256 store keys of one io point, captured before the guard existed.
    KEYS = {
        0.010: "023d64c581282855d39ead8f7b3d3ed7c2c8a4a7d7ef82a4c3ef190ccd0b6405",
        0.25: "5ad4b664407547c7600bd53bd76219c2f0cc35dcb81570c0a1e181388db4e876",
        1: "a9e8a593c4414401fe8d856d4fe504e8e732d11172f93dad482719aea7158c2b",
    }

    @pytest.mark.parametrize("interval", list(KEYS), ids=repr)
    def test_valid_testbed_store_keys_unchanged(self, interval):
        from repro.core.experiments import Testbed
        from repro.runtime.store import point_key, testbed_fingerprint

        fp = testbed_fingerprint(Testbed(scale="tiny", sample_interval=interval))
        params = {"dataset": "cesm", "codec": "szx", "rel_bound": 1e-3}
        assert point_key("io", params, fp) == self.KEYS[interval]


class TestExactPins:
    """``repr``-exact energy reports captured from the per-tick sampler.

    Any change to how the sampler integrates a window must leave every
    float, count and zone split identical.
    """

    def test_measure_split_100s_window(self):
        meter = EnergyMeter(get_cpu("max9480"))
        assert repr(meter.measure_split([Phase(100.0, 37, 0.83, "compute")])) == (
            "EnergyReport(runtime_s=100.0, energy_j=38838.44, "
            "zone_energies_j=(25838.44, 13000.0), n_samples=10001)"
        )

    def test_measure_split_across_windows(self):
        meter = EnergyMeter(get_cpu("max9480"))
        assert repr(meter.measure_split([Phase(250.0, 7, 0.6, "compute")])) == (
            "EnergyReport(runtime_s=250.0, energy_j=70634.925, "
            "zone_energies_j=(38134.924999999996, 32500.0), n_samples=25004)"
        )

    def test_three_phase_write(self):
        meter = EnergyMeter(get_cpu("plat8160"))
        report = meter.measure(
            [
                Phase(0.41616487499999993, 1, 1.0, "compress"),
                Phase(0.0123456789, 1, 1.0, "serialize"),
                Phase(0.2777389727870813, 1, 0.3, "transfer"),
            ]
        )
        assert repr(report) == (
            "EnergyReport(runtime_s=0.7062495266870813, energy_j=85.07307399999999, "
            "zone_energies_j=(46.22935, 38.843724), n_samples=73)"
        )

    def test_stepped_node_energy(self):
        from repro.cluster.costs import stepped_node_energy

        joules = stepped_node_energy(
            get_cpu("plat8160"),
            ranks=48,
            t_comp=0.21646153846153846,
            t_serialize=0.0375,
            t0=0.25396153846153846,
            finishes=np.array([1.1, 1.35, 1.35, 1.9267431176315788]),
            transfer_activity=0.3,
            sample_interval=0.02,
        )
        assert repr(joules) == "(116.88923, 415.48042)"


# -- the meter against the per-tick loop ---------------------------------------


def window_report(window, meter, phases):
    """``EnergyMeter.measure``'s report, built from ``window`` (the per-tick
    reference or the closed form) run on the meter's power model."""
    args = [(ph.duration_s, ph.active_cores, ph.activity) for ph in phases]
    now, counters, n_samples = window(
        meter.power_model, meter.sample_interval, args, DEFAULT_MAX_ENERGY_RANGE_UJ
    )
    zones = tuple(c / 1e6 for c in counters)
    return EnergyReport(
        runtime_s=now, energy_j=sum(zones), zone_energies_j=zones, n_samples=n_samples
    )


def _meter_windows(long_s=0.0):
    """(meter, phases): every meter CPU, nominal or DVFS-pinned, with
    multi-phase windows of zero, sub-floor, tick-multiple and tailed phases
    (plus phases up to ``long_s`` seconds when it is positive)."""
    from hypothesis import strategies as st

    @st.composite
    def window(draw):
        cpu = draw(st.sampled_from(METER_CPUS))
        interval = draw(st.sampled_from(INTERVALS))
        freq = draw(st.one_of(st.none(), st.sampled_from(cpu.freq_ladder())))
        durations = tick_durations(interval)
        if long_s:
            durations = st.one_of(durations, st.floats(90.0, long_s))
        phase = st.builds(
            Phase,
            durations,
            st.integers(0, cpu.cores),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )
        meter = EnergyMeter(cpu, sample_interval=interval, freq_ghz=freq)
        return meter, draw(st.lists(phase, min_size=0, max_size=5))

    return window()


class TestMeterWithoutSimulators:
    """``EnergyMeter`` integrates its windows in closed form, bit-identically
    to the per-tick polling loop (report equality compares every field with
    ``==``)."""

    def test_measure_equals_simulator_walk(self):
        from hypothesis import given, settings

        @settings(max_examples=300, deadline=None)
        @given(_meter_windows())
        def check(window):
            meter, phases = window
            assert meter.measure(phases) == window_report(
                reference_window, meter, phases
            )

        check()

    def test_measure_split_equals_simulator_walk(self):
        """Per tick, a 260 s phase at 3 ms takes about a second, so the long
        windows are checked against the closed form, which the property
        above and ``TestClosedFormSampler`` check against the per-tick loop."""
        from hypothesis import given, settings

        def closed_form_measure(meter, phases):
            return window_report(closed_form_window, meter, phases)

        @settings(max_examples=60, deadline=None)
        @given(_meter_windows(long_s=260.0))
        def check(window):
            meter, phases = window
            got = meter.measure_split(phases)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(EnergyMeter, "measure", closed_form_measure)
                want = meter.measure_split(phases)
            assert got == want

        check()

    @pytest.mark.parametrize("cpu", METER_CPUS, ids=lambda c: c.name)
    def test_window_past_the_counter_wrap(self, cpu):
        # 3000 s at full load deposits over the ~262 kJ wrap range per zone.
        meter = EnergyMeter(cpu, sample_interval=0.25)
        phases = [Phase(3000.0, cpu.cores, 1.0), Phase(0.13, 1, 0.5)]
        report = meter.measure(phases)
        assert report == window_report(reference_window, meter, phases)
        assert report.zone_energies_j[0] < cpu.tdp_w * 3000.0  # wrapped

    def test_builds_no_simulator(self):
        import repro.cluster
        import repro.energy
        from repro.energy import papi, rapl

        # The RAPL/PAPI objects and the event loop are gone from the package.
        gone = {"SimulatedRapl", "RaplZone", "PapiPowercapMonitor", "PowerSample",
                "EventLoop", "Process", "NodeModel"}
        for module in (repro.energy, repro.cluster, papi, rapl):
            assert not gone & set(dir(module)), module.__name__
        meter = EnergyMeter(get_cpu("plat8260m"))
        assert meter.measure([Phase(0.5, 30), Phase(0.0, 2)]).n_samples == 51


# -- the array kernel ----------------------------------------------------------

#: Sampling intervals of the array tick split: the meter default, the
#: cluster's, and one that is not a short binary fraction.
SPLIT_INTERVALS = (0.01, 0.02, 0.0137)


def _split_durations(interval):
    """Durations at and under the phantom floor, on exact tick multiples,
    below one interval, and at ordinary lengths."""
    from hypothesis import strategies as st

    return st.one_of(
        tick_durations(interval),
        st.sampled_from([0.0, 1e-13, FLOOR, 2 * FLOOR, interval]),
        st.builds(lambda k: k * interval, st.integers(0, 2000)),
        st.floats(0.0, interval, allow_nan=False, allow_infinity=False),
    )


class TestTickSplits:
    """``tick_splits`` equals ``tick_split`` element by element."""

    @staticmethod
    def _assert_matches(durations, interval):
        from repro.energy.papi import tick_splits

        ticks, tails = tick_splits(durations, interval)
        want = [tick_split(float(d), interval) for d in durations]
        assert list(zip(ticks.tolist(), tails.tolist())) == want

    def test_equals_scalar_split(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def batch(draw):
            interval = draw(st.sampled_from(SPLIT_INTERVALS))
            return draw(st.lists(_split_durations(interval), max_size=60)), interval

        @settings(max_examples=300, deadline=None)
        @given(batch())
        def check(case):
            self._assert_matches(*case)

        check()

    @pytest.mark.parametrize("interval", SPLIT_INTERVALS)
    def test_past_one_step_chunk(self, interval):
        from repro.energy.rapl import STEP_CHUNK

        long = (STEP_CHUNK + 1234) * interval
        durations = [long, long + 0.004, 0.5, 1e-13, 3 * interval, 0.0]
        self._assert_matches(durations, interval)

    def test_more_phases_than_the_cell_budget(self):
        from repro.energy.papi import WALK_CELLS

        r = np.random.default_rng(5)
        self._assert_matches(r.uniform(0.0, 0.3, WALK_CELLS + 7), 0.02)

    def test_walk_memory_is_bounded(self):
        import tracemalloc

        from repro.energy.papi import WALK_CELLS, tick_splits

        tracemalloc.start()
        try:
            ticks, _ = tick_splits([5000.0, 4000.0, 3000.0], 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ticks.tolist()[1] in (399_999, 400_000)
        assert peak < 3 * WALK_CELLS * 8

    @pytest.mark.parametrize("duration", NON_FINITE + [-0.01], ids=repr)
    def test_bad_duration_rejected(self, duration):
        from repro.energy.papi import tick_splits

        exc = outcome(lambda: tick_splits([0.5, duration], 0.01))
        assert isinstance(exc, ConfigurationError)

    def test_interval_below_float_resolution_rejected(self):
        from repro.energy.papi import tick_splits

        exc = outcome(lambda: tick_splits([0.5, 1.0], 1e-300))
        assert isinstance(exc, ConfigurationError)


class TestPhaseEnergies:
    def test_equals_integrate_phase_below_the_wrap(self):
        from hypothesis import given, settings

        from repro.energy.papi import tick_splits
        from repro.energy.rapl import integrate_phase, phase_energies

        @settings(max_examples=200, deadline=None)
        @given(_meter_windows(long_s=3000.0))
        def check(window):
            meter, phases = window
            ticks, tails = tick_splits([ph.duration_s for ph in phases],
                                       meter.sample_interval)
            got = phase_energies(
                meter.power_model, meter.sample_interval,
                [ph.active_cores for ph in phases], [ph.activity for ph in phases],
                ticks, tails,
            )
            for ph, t, tail, joules in zip(phases, ticks.tolist(), tails.tolist(),
                                           got.tolist()):
                # A range no phase here reaches, so nothing wraps.
                counters = [0] * meter.cpu.sockets
                integrate_phase(meter.power_model, counters, [1 << 62] * len(counters),
                                0.0, meter.sample_interval, ph.active_cores,
                                ph.activity, t, tail)
                assert joules == sum(c / 1e6 for c in counters)

        check()

    def test_keeps_every_wrap(self):
        from repro.energy.rapl import DEFAULT_MAX_ENERGY_RANGE_UJ, phase_energies

        cpu = get_cpu("plat8160")
        (joules,) = phase_energies(PowerModel(cpu), 0.02, [cpu.cores], [1.0],
                                   [60_000], [0.0])
        assert joules == pytest.approx(cpu.tdp_w * cpu.sockets * 1200.0, rel=1e-12)
        assert joules / cpu.sockets > DEFAULT_MAX_ENERGY_RANGE_UJ / 1e6

    def test_power_once_per_distinct_load(self, monkeypatch):
        from repro.energy.rapl import phase_energies

        calls = []
        original = PowerModel.package_power

        def counting(self, *args, **kwargs):
            calls.append(args[:3])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PowerModel, "package_power", counting)
        cpu = get_cpu("plat8260m")
        phase_energies(PowerModel(cpu), 0.01, [4, 4, 96, 4, 7], [1.0, 1.0, 0.3, 1.0, 0.5],
                       [3, 0, 2, 9, 0], [0.0, 0.004, 0.0, 0.001, 0.0])
        # (7, 0.5) takes no step, so it is never priced.
        assert len(calls) == 2 * cpu.sockets

    def test_counter_overflow_is_typed(self):
        from repro.energy.rapl import phase_energies

        cpu = get_cpu("plat8160")
        with pytest.raises(ConfigurationError, match="int64"):
            phase_energies(PowerModel(cpu), 0.02, [cpu.cores], [1.0], [1 << 60], [0.0])
