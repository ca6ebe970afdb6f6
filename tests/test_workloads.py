"""Workload layer: failure model, Daly math, lifecycle simulation."""

import math
import statistics

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.workloads import (
    CheckpointSpec,
    FailureModel,
    daly_interval,
    expected_energy,
    expected_failures,
    expected_makespan,
    resolve_interval,
    run_lifecycle,
    segment_works,
    young_interval,
)
from repro.workloads import lifecycle as lc
from repro.workloads.lifecycle import compact_intervals

from reference.workloads import reference_run_lifecycle


def test_imports_in_a_fresh_interpreter():
    """``repro.workloads`` imports on its own: no cycle through
    ``repro.cluster``, which imports the lifecycle back."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import repro.workloads"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


class TestFailureModel:
    def test_system_mttf_scales_with_nodes(self):
        m = FailureModel(node_mttf_s=86400.0, n_nodes=32)
        assert m.system_mttf_s == 86400.0 / 32

    def test_infinite_mttf_is_failure_free(self):
        m = FailureModel(node_mttf_s=math.inf, n_nodes=8)
        assert m.failure_free
        assert m.timeline(0).next_after(0.0) is None

    def test_same_seed_same_history(self):
        m = FailureModel(node_mttf_s=1000.0, n_nodes=4)
        a, b = m.timeline(42), m.timeline(42)
        t = 0.0
        for _ in range(50):
            fa, fb = a.next_after(t), b.next_after(t)
            assert fa == fb
            t = fa
        assert m.timeline(43).next_after(0.0) != m.timeline(42).next_after(0.0)

    def test_merged_rate_matches_system_mttf(self):
        """Mean inter-arrival over many draws ≈ node MTTF / n_nodes."""
        m = FailureModel(node_mttf_s=4000.0, n_nodes=8)
        tl = m.timeline(7)
        times = []
        t = 0.0
        for _ in range(4000):
            t = tl.next_after(t)
            times.append(t)
        gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
        assert statistics.mean(gaps) == pytest.approx(m.system_mttf_s, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureModel(node_mttf_s=0.0)
        with pytest.raises(ConfigurationError):
            FailureModel(node_mttf_s=100.0, n_nodes=0)


class TestIntervalMath:
    def test_young_formula(self):
        assert young_interval(10.0, 2000.0) == pytest.approx(
            math.sqrt(2 * 10.0 * 2000.0)
        )
        assert young_interval(10.0, math.inf) == math.inf

    def test_daly_refinement(self):
        tau = daly_interval(10.0, 2000.0, 5.0)
        assert tau == pytest.approx(math.sqrt(2 * 10.0 * 2005.0) - 10.0)
        assert daly_interval(10.0, math.inf) == math.inf
        # Clamped at the checkpoint cost itself when MTTF is tiny.
        assert daly_interval(10.0, 1.0, 0.0) == 10.0

    def test_resolve_interval(self):
        assert resolve_interval("young", 10.0, 2000.0) == young_interval(10.0, 2000.0)
        assert resolve_interval("daly", 10.0, 2000.0, 5.0) == daly_interval(
            10.0, 2000.0, 5.0
        )
        assert resolve_interval(123.0, 10.0, 2000.0) == 123.0
        with pytest.raises(ConfigurationError):
            resolve_interval("hourly", 10.0, 2000.0)
        with pytest.raises(ConfigurationError):
            resolve_interval(0.0, 10.0, 2000.0)

    def test_segment_works(self):
        assert segment_works(100.0, math.inf) == [100.0]
        assert segment_works(100.0, 40.0) == [40.0, 40.0, 20.0]
        assert sum(segment_works(97.3, 13.0)) == pytest.approx(97.3)

    def test_failure_free_closed_forms(self):
        spec = CheckpointSpec(
            work_s=100.0, interval_s=40.0, ckpt_s=5.0, restart_s=3.0, mttf_s=math.inf
        )
        assert spec.n_checkpoints == 3
        assert expected_makespan(spec) == pytest.approx(115.0)
        assert expected_failures(spec) == 0.0
        assert expected_energy(spec, 100.0, 50.0, 30.0, 10.0) == pytest.approx(
            100.0 * 100.0 + 3 * 50.0
        )

    @pytest.mark.parametrize(
        "field, value",
        [("work_s", math.inf)]
        + [(f, v) for f in ("ckpt_s", "restart_s", "downtime_s")
           for v in (math.nan, math.inf)],
    )
    def test_spec_rejects_non_finite_costs(self, field, value):
        """A NaN cost used to pass ``x < 0`` and end the run at a NaN
        makespan; an inf work overflowed in ``segment_works``."""
        good = dict(work_s=100.0, interval_s=math.inf, ckpt_s=5.0,
                    restart_s=3.0, mttf_s=math.inf, downtime_s=1.0)
        CheckpointSpec(**good)  # inf interval and MTTF keep their meaning
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            CheckpointSpec(**{**good, field: value})


class TestLifecycle:
    def test_failure_free_reduction(self):
        spec = CheckpointSpec(
            work_s=600.0, interval_s=math.inf, ckpt_s=12.5, restart_s=7.0,
            mttf_s=math.inf,
        )
        st = run_lifecycle(spec)
        assert st.makespan_s == 612.5
        assert st.n_checkpoints == st.n_ckpt_attempts == 1
        assert st.n_failures == st.n_restarts == 0
        assert st.compute_busy_s == 600.0 and st.rework_s == 0.0
        assert st.ckpt_busy_s == 12.5 and st.ckpt_partial_s == 0.0
        labels = [iv.label for iv in st.intervals]
        assert labels == ["compute", "checkpoint"]

    def test_periodic_checkpoints_failure_free(self):
        spec = CheckpointSpec(
            work_s=100.0, interval_s=30.0, ckpt_s=2.0, restart_s=1.0, mttf_s=math.inf
        )
        st = run_lifecycle(spec)
        assert st.n_checkpoints == 4  # 30+30+30+10
        assert st.makespan_s == pytest.approx(108.0)

    def test_result_returned_via_process_result(self):
        """The generator oracle hands its stats back through
        ``Process.result``; the plain loop returns the same stats."""
        spec = CheckpointSpec(
            work_s=10.0, interval_s=math.inf, ckpt_s=1.0, restart_s=1.0,
            mttf_s=math.inf,
        )
        st = reference_run_lifecycle(spec)
        assert st.makespan_s == 11.0 and run_lifecycle(spec) == st

    def test_same_seed_byte_identical(self):
        model = FailureModel(node_mttf_s=900.0, n_nodes=3)
        spec = CheckpointSpec(
            work_s=1500.0, interval_s=60.0, ckpt_s=8.0, restart_s=4.0,
            mttf_s=model.system_mttf_s, downtime_s=20.0,
        )
        a = run_lifecycle(spec, model.timeline(11))
        b = run_lifecycle(spec, model.timeline(11))
        assert a == b  # dataclass equality covers every interval, bit for bit
        assert a.n_failures > 0  # the scenario actually exercises failures

    def test_accounting_identities(self):
        model = FailureModel(node_mttf_s=700.0, n_nodes=2)
        spec = CheckpointSpec(
            work_s=2000.0, interval_s=80.0, ckpt_s=10.0, restart_s=5.0,
            mttf_s=model.system_mttf_s, downtime_s=15.0,
        )
        st = run_lifecycle(spec, model.timeline(5))
        # Committed checkpoints cover the whole work; every failure restarts.
        assert st.n_checkpoints == spec.n_checkpoints
        assert st.n_failures >= st.n_restarts
        assert st.downtime_s == pytest.approx(st.n_failures * 15.0)
        # The timeline tiles the makespan exactly: busy + downtime == span.
        busy = st.compute_busy_s + st.ckpt_busy_s + st.restart_busy_s
        assert busy + st.downtime_s == pytest.approx(st.makespan_s)
        # Intervals are disjoint and ordered.
        ivs = sorted(st.intervals, key=lambda iv: iv.start_s)
        for prev, cur in zip(ivs, ivs[1:]):
            assert cur.start_s >= prev.end_s - 1e-9

    def test_compact_intervals_rebases_gaplessly(self):
        model = FailureModel(node_mttf_s=500.0, n_nodes=2)
        spec = CheckpointSpec(
            work_s=800.0, interval_s=50.0, ckpt_s=6.0, restart_s=3.0,
            mttf_s=model.system_mttf_s, downtime_s=10.0,
        )
        st = run_lifecycle(spec, model.timeline(2))
        compute = compact_intervals(st.intervals, {"compute"})
        assert compute[0].start_s == 0.0
        for prev, cur in zip(compute, compute[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)
        assert sum(iv.end_s - iv.start_s for iv in compute) == pytest.approx(
            st.compute_busy_s
        )

    def test_unreachable_work_raises(self):
        model = FailureModel(node_mttf_s=1.0, n_nodes=1)
        spec = CheckpointSpec(
            work_s=1000.0, interval_s=1000.0, ckpt_s=5.0, restart_s=5.0,
            mttf_s=model.system_mttf_s,
        )
        old = lc.MAX_FAILURES
        lc.MAX_FAILURES = 200
        try:
            with pytest.raises(SimulationError):
                run_lifecycle(spec, model.timeline(0))
        finally:
            lc.MAX_FAILURES = old


def _lifetimes():
    """(spec, model, seed, kwargs): failure-free and failing lifetimes, with
    zero and positive checkpoint, restart and downtime costs, and MTTFs low
    enough that some runs exhaust ``MAX_FAILURES``."""
    from hypothesis import strategies as st

    costs = st.one_of(st.just(0.0), st.floats(0.01, 60.0))

    @st.composite
    def lifetime(draw):
        model = FailureModel(
            node_mttf_s=draw(st.one_of(st.just(math.inf), st.floats(2.0, 20_000.0))),
            n_nodes=draw(st.integers(1, 8)),
        )
        spec = CheckpointSpec(
            work_s=draw(st.floats(0.5, 3000.0)),
            interval_s=draw(st.one_of(st.just(math.inf), st.floats(5.0, 1000.0))),
            ckpt_s=draw(costs),
            restart_s=draw(costs),
            mttf_s=model.system_mttf_s,
            downtime_s=draw(costs),
        )
        kwargs = dict(
            compute_cores=draw(st.integers(1, 96)),
            ckpt_cores=draw(st.integers(1, 96)),
            ckpt_activity=draw(st.floats(0.0, 1.0)),
            restart_cores=draw(st.integers(1, 96)),
            restart_activity=draw(st.floats(0.0, 1.0)),
        )
        return spec, model, draw(st.integers(0, 2**32 - 1)), kwargs

    return lifetime()


class TestLifecycleOracle:
    """The plain-loop lifecycle equals the generator process it replaced on
    the event loop: every ``LifecycleStats`` field and interval, bit for bit,
    and the same ``SimulationError`` past ``MAX_FAILURES``."""

    def test_equals_event_loop_lifecycle(self, monkeypatch):
        from hypothesis import example, given, settings

        monkeypatch.setattr(lc, "MAX_FAILURES", 50)
        unreachable = FailureModel(node_mttf_s=1.0, n_nodes=1)

        @settings(max_examples=200, deadline=None)
        @given(_lifetimes())
        @example((  # fails past the cap
            CheckpointSpec(work_s=1000.0, interval_s=1000.0, ckpt_s=5.0,
                           restart_s=5.0, mttf_s=1.0),
            unreachable, 0, {},
        ))
        def check(case):
            spec, model, seed, kwargs = case
            try:
                want = reference_run_lifecycle(spec, model.timeline(seed), **kwargs)
            except SimulationError as exc:
                with pytest.raises(SimulationError) as got:
                    run_lifecycle(spec, model.timeline(seed), **kwargs)
                assert str(got.value) == str(exc)
                return
            assert run_lifecycle(spec, model.timeline(seed), **kwargs) == want

        check()

    def test_failure_cut_steps_the_clock(self):
        # After a failure the clock is ``start + (cut - start)``, as the
        # event loop's delay made it, which here lands off the failure time.
        model = FailureModel(node_mttf_s=3000.0, n_nodes=4)
        spec = CheckpointSpec(
            work_s=2000.0, interval_s=math.inf, ckpt_s=0.3, restart_s=0.1,
            mttf_s=model.system_mttf_s, downtime_s=0.1,
        )
        st = run_lifecycle(spec, model.timeline(4))
        ivs = st.intervals
        assert any(b.start_s != a.end_s for a, b in zip(ivs, ivs[1:]))
        assert st == reference_run_lifecycle(spec, model.timeline(4))


class TestSimulationMatchesClosedForm:
    """The acceptance gate: event-loop expectation ≈ Daly closed form.

    Tolerances are documented in docs/user-guide/checkpointing.md: the
    makespan renewal model is exact (sampling error only — 5 % over 50
    seeds); the first-order energy expansion is coarser (15 %).
    """

    @pytest.fixture(scope="class")
    def scenario(self):
        model = FailureModel(node_mttf_s=2000.0, n_nodes=4)
        tau = daly_interval(12.5, model.system_mttf_s, 7.0)
        spec = CheckpointSpec(
            work_s=3000.0, interval_s=tau, ckpt_s=12.5, restart_s=7.0,
            mttf_s=model.system_mttf_s, downtime_s=30.0,
        )
        return model, spec

    def test_expected_makespan(self, scenario):
        model, spec = scenario
        runs = [run_lifecycle(spec, model.timeline(s)) for s in range(50)]
        mean = statistics.mean(st.makespan_s for st in runs)
        assert mean == pytest.approx(expected_makespan(spec), rel=0.05)

    def test_expected_failures(self, scenario):
        model, spec = scenario
        runs = [run_lifecycle(spec, model.timeline(s)) for s in range(50)]
        mean = statistics.mean(st.n_failures for st in runs)
        assert mean == pytest.approx(expected_failures(spec), rel=0.15)

    def test_daly_interval_beats_extremes_in_expectation(self, scenario):
        """τ_daly is near-optimal: much better than checkpointing far too
        rarely or far too often."""
        model, spec = scenario
        t_opt = expected_makespan(spec)
        for tau in (spec.ckpt_s * 1.01, 50 * spec.interval_s):
            worse = CheckpointSpec(
                work_s=spec.work_s, interval_s=tau, ckpt_s=spec.ckpt_s,
                restart_s=spec.restart_s, mttf_s=spec.mttf_s,
                downtime_s=spec.downtime_s,
            )
            assert expected_makespan(worse) > t_opt
