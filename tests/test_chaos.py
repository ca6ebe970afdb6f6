"""The fault-injection (chaos) battery.

Every registered experiment kind's conformance grid is swept under
deterministically injected faults — worker exceptions, hangs, process
crashes, corrupted disk entries — and must come out exactly where an
unfaulted run would have landed:

- with retry budget, faulted records are *equal* to the clean run's
  (faults fire only on first attempts, so retries must converge);
- corrupted disk entries are quarantined, counted, and recomputed;
- a crashed process worker costs a pool rebuild, never the grid;
- a sweep killed mid-run and resumed from its disk cache produces
  records and store bytes identical to a straight-through run;
- with ``on_error="collect"``, exhausted points surface as structured
  :class:`FailedPoint`\\ s in their grid positions — completed work is
  never lost.

Everything here is seed-driven: the same faults, in the same places, on
every run and platform.  Marked ``chaos`` so CI can run it as its own job
(``pytest -m chaos``); it runs in the default suite too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.experiments import Testbed
from repro.errors import ConfigurationError
from repro.runtime import registry
from repro.runtime.engine import SweepEngine
from repro.runtime.faults import (
    FailedPoint,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    error_chain,
)
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore, point_key
from repro.runtime.store import testbed_fingerprint as _fingerprint

pytestmark = pytest.mark.chaos

_KINDS = [k for k in registry.all_kinds() if k.conformance is not None]
_IDS = [k.name for k in _KINDS]

#: A two-point grid for the targeted (crash/hang/resume) tests: big enough
#: to show isolation, small enough to keep process pools cheap.
TINY_SPEC = dict(kind="quality", datasets=("cesm",), codecs=("szx", "sz3"),
                 bounds=(1e-3,))


@pytest.fixture(scope="module")
def tiny_testbed():
    return Testbed(scale="tiny")


def _clean_run(testbed, spec):
    return SweepEngine(testbed=testbed, store=ResultStore()).run(spec)


# -- policy / injector units --------------------------------------------------


class TestRetryPolicy:
    def test_defaults_are_the_seed_behaviour(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1 and policy.timeout_s is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_jitter=1.5)

    def test_configuration_errors_not_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.retryable(ConfigurationError("bad axis"))
        assert policy.retryable(RuntimeError("transient"))

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                             backoff_factor=2.0, backoff_jitter=0.5,
                             backoff_max_s=0.3, seed=42)
        delays = [policy.backoff_s("k" * 64, n) for n in range(2, 6)]
        again = [policy.backoff_s("k" * 64, n) for n in range(2, 6)]
        assert delays == again  # pure function of (seed, key, attempt)
        assert all(0 < d <= 0.3 for d in delays)
        # different key, different jitter
        assert delays != [policy.backoff_s("x" * 64, n) for n in range(2, 6)]

    def test_backoff_zero_base_and_first_attempt(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.5)
        assert policy.backoff_s("k", 1) == 0.0
        assert RetryPolicy(max_attempts=3).backoff_s("k", 4) == 0.0


class TestFaultInjector:
    def test_plan_deterministic(self):
        inj = FaultInjector(seed=9, error_rate=0.3, hang_rate=0.3, crash_rate=0.3)
        plans = [inj.plan(f"key{i}", 1) for i in range(50)]
        assert plans == [inj.plan(f"key{i}", 1) for i in range(50)]
        assert {"error", "hang", "crash"} <= set(plans)  # all fire somewhere

    def test_faults_stop_after_max_attempt(self):
        inj = FaultInjector(seed=9, error_rate=1.0)
        assert inj.plan("k", 1) == "error"
        assert inj.plan("k", 2) == "ok"  # retries must converge

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(error_rate=0.6, hang_rate=0.6)

    def test_apply_error_raises(self):
        with pytest.raises(InjectedFault):
            FaultInjector(seed=0, error_rate=1.0).apply("k", 1)

    def test_crash_downgraded_outside_process_worker(self):
        with pytest.raises(InjectedFault):
            FaultInjector(seed=0, crash_rate=1.0).apply("k", 1,
                                                        in_process_worker=False)


class TestFailureStructures:
    def test_error_chain_walks_causes(self):
        try:
            try:
                raise ValueError("inner")
            except ValueError as inner:
                raise RuntimeError("outer") from inner
        except RuntimeError as exc:
            chain = error_chain(exc)
        assert chain == ("RuntimeError: outer", "ValueError: inner")

    def test_failed_point_wire_format(self):
        failed = FailedPoint(op="roundtrip", params=(("codec", "szx"),),
                             key="f" * 64, reason="error",
                             error_chain=("InjectedFault: boom",), attempts=3)
        wire = failed.to_wire()
        assert wire["__failed__"] is True
        assert wire["params"] == {"codec": "szx"}
        json.dumps(wire)  # JSON-safe by construction


# -- the per-kind battery -----------------------------------------------------


@pytest.mark.parametrize("kind", _KINDS, ids=_IDS)
def test_injected_errors_converge_to_clean_records(tiny_testbed, kind):
    """Worker exceptions + retry budget must reproduce the clean run."""
    spec = SweepSpec(kind=kind.name, **kind.conformance)
    clean = _clean_run(tiny_testbed, spec)
    for executor in ("serial", "thread"):
        engine = SweepEngine(
            testbed=tiny_testbed, store=ResultStore(), executor=executor,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_injector=FaultInjector(seed=13, error_rate=0.5),
        )
        assert engine.run(spec) == clean, f"{kind.name}/{executor}"
        assert engine.stats.failures == 0


@pytest.mark.parametrize("kind", _KINDS, ids=_IDS)
def test_corrupted_entries_quarantined_and_recomputed(tiny_testbed, kind,
                                                      tmp_path):
    """Every disk entry garbled after write: a cold store must quarantine
    each one, recompute, and land on the clean records."""
    spec = SweepSpec(kind=kind.name, **kind.conformance)
    clean = _clean_run(tiny_testbed, spec)
    cache = tmp_path / "cache"
    SweepEngine(
        testbed=tiny_testbed, store=ResultStore(cache_dir=cache),
        fault_injector=FaultInjector(seed=17, corrupt_rate=1.0),
    ).run(spec)
    cold = ResultStore(cache_dir=cache)
    engine = SweepEngine(testbed=tiny_testbed, store=cold)
    assert engine.run(spec) == clean
    n_unique = len({engine._key(p) for p in spec.points()})
    assert cold.stats["corrupt_quarantined"] == n_unique
    assert len(list(cache.glob("*.corrupt"))) == n_unique
    # the recomputed entries re-read cleanly
    reread = ResultStore(cache_dir=cache)
    assert SweepEngine(testbed=tiny_testbed, store=reread).run(spec) == clean
    assert reread.stats["corrupt_quarantined"] == 0


# -- targeted fault paths -----------------------------------------------------


def test_process_crash_rebuilds_pool_and_converges(tiny_testbed):
    """os._exit in a worker (BrokenProcessPool) must cost a rebuild, not
    the grid — and retries converge to the clean records."""
    spec = SweepSpec(**TINY_SPEC)
    clean = _clean_run(tiny_testbed, spec)
    engine = SweepEngine(
        testbed=tiny_testbed, store=ResultStore(), executor="process",
        max_workers=2, retry_policy=RetryPolicy(max_attempts=3),
        fault_injector=FaultInjector(seed=3, crash_rate=1.0),
    )
    assert engine.run(spec) == clean
    assert engine.stats.pool_rebuilds >= 1
    assert engine.stats.failures == 0


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_hang_trips_timeout_then_retry_converges(tiny_testbed, executor):
    spec = SweepSpec(**TINY_SPEC)
    clean = _clean_run(tiny_testbed, spec)
    engine = SweepEngine(
        testbed=tiny_testbed, store=ResultStore(), executor=executor,
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=3, timeout_s=0.5),
        fault_injector=FaultInjector(seed=5, hang_rate=1.0, hang_s=2.0),
    )
    assert engine.run(spec) == clean
    assert engine.stats.timeouts >= 1
    assert engine.stats.failures == 0


def test_collect_surfaces_structured_failures(tiny_testbed):
    """No retry budget + certain faults: every position is a FailedPoint
    carrying the op, params, key, reason, and error chain."""
    spec = SweepSpec(**TINY_SPEC)
    engine = SweepEngine(
        testbed=tiny_testbed, store=ResultStore(), on_error="collect",
        fault_injector=FaultInjector(seed=7, error_rate=1.0),
    )
    results = engine.run(spec)
    assert all(isinstance(r, FailedPoint) for r in results)
    assert engine.stats.failures == len(results)
    points = spec.points()
    for failed, point in zip(results, points):
        assert failed.op == point.op
        assert failed.as_params() == point.as_kwargs()
        assert failed.reason == "error"
        assert failed.attempts == 1
        assert failed.error_chain and "InjectedFault" in failed.error_chain[0]


def test_collect_preserves_completed_work(tiny_testbed):
    """Partial faults under collect: good points keep their records, and a
    second run recomputes only the failed ones (failures never cached)."""
    spec = SweepSpec(kind="quality", datasets=("cesm",),
                     codecs=("szx", "sz3"), bounds=(1e-2, 1e-3))
    clean = _clean_run(tiny_testbed, spec)
    store = ResultStore()
    injector = FaultInjector(seed=13, error_rate=0.5)
    engine = SweepEngine(testbed=tiny_testbed, store=store,
                         on_error="collect", fault_injector=injector)
    results = engine.run(spec)
    failed = [i for i, r in enumerate(results) if isinstance(r, FailedPoint)]
    assert failed and len(failed) < len(results)  # seed 13: a genuine mix
    for i, r in enumerate(results):
        if i not in failed:
            assert r == clean[i]
    # rerun on the same warm store, no injector: only failures recompute
    rerun = SweepEngine(testbed=tiny_testbed, store=store)
    assert rerun.run(spec) == clean
    assert rerun.stats.computed == len(failed)


def test_raise_mode_reraises_after_exhaustion(tiny_testbed):
    engine = SweepEngine(
        testbed=tiny_testbed, store=ResultStore(),
        fault_injector=FaultInjector(seed=7, error_rate=1.0, max_attempt=99),
        retry_policy=RetryPolicy(max_attempts=2),
    )
    with pytest.raises(InjectedFault):
        engine.run(SweepSpec(**TINY_SPEC))
    assert engine.stats.retries == 1  # one retry happened before the raise


# -- crash-safe resume --------------------------------------------------------


class _Killed(Exception):
    pass


def _run_until_killed(testbed, spec, cache_dir, n_points):
    """Start a sweep and kill it (via the event stream) after n records."""
    seen = [0]

    def bomb(event):
        if event.kind == "point":
            seen[0] += 1
            if seen[0] >= n_points:
                raise _Killed()

    engine = SweepEngine(testbed=testbed,
                         store=ResultStore(cache_dir=cache_dir),
                         on_event=bomb)
    with pytest.raises(_Killed):
        engine.run(spec)


def _keys(testbed, spec):
    """The unique store keys of ``spec``'s points."""
    fp = _fingerprint(testbed)
    return {point_key(p.op, p.as_kwargs(), fp) for p in spec.points()}


def _stored(testbed, spec, cache_dir):
    """(unique points of ``spec`` in the disk store, unique points)."""
    keys = _keys(testbed, spec)
    store = ResultStore(cache_dir=cache_dir)
    return sum(key in store for key in keys), len(keys)


def test_killed_sweep_resumes_bit_identical(tiny_testbed, tmp_path):
    spec = SweepSpec(kind="quality", datasets=("cesm",),
                     codecs=("szx", "sz3"), bounds=(1e-2, 1e-3))
    clean = _clean_run(tiny_testbed, spec)
    killed_dir, straight_dir = tmp_path / "killed", tmp_path / "straight"
    _run_until_killed(tiny_testbed, spec, killed_dir, n_points=2)

    assert _stored(tiny_testbed, spec, killed_dir) == (2, 4)  # survived the kill

    resumed = SweepEngine(testbed=tiny_testbed,
                          store=ResultStore(cache_dir=killed_dir))
    records = resumed.run(spec)
    assert records == clean
    assert resumed.stats.cache_hits == 2 and resumed.stats.computed == 2
    assert _stored(tiny_testbed, spec, killed_dir) == (4, 4)

    # store bytes identical to a straight-through run
    SweepEngine(testbed=tiny_testbed,
                store=ResultStore(cache_dir=straight_dir)).run(spec)
    killed_files = sorted(p.name for p in killed_dir.glob("*.json"))
    straight_files = sorted(p.name for p in straight_dir.glob("*.json"))
    assert killed_files == straight_files
    for name in killed_files:
        assert (killed_dir / name).read_bytes() == (
            straight_dir / name
        ).read_bytes()


def test_disk_sweep_writes_only_store_entries(tiny_testbed, tmp_path):
    """A cold disk-backed sweep leaves one ``<key>.json`` per unique point
    and the advisory ``.lock`` in the cache dir, and nothing else."""
    spec = SweepSpec(**TINY_SPEC)
    SweepEngine(testbed=tiny_testbed,
                store=ResultStore(cache_dir=tmp_path)).run(spec)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{key}.json" for key in _keys(tiny_testbed, spec)] + [".lock"]
    )


def test_cli_resume_reports_progress(tiny_testbed, tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    argv = ["sweep", "--kind", "quality", "--datasets", "cesm",
            "--codecs", "szx,sz3", "--bounds", "1e-3", "--scale", "tiny",
            "--cache-dir", cache]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    assert "resuming: 2/2" in capsys.readouterr().err
    # a corrupt entry is not complete: it is quarantined and recomputed
    entry = next((tmp_path / "cache").glob("*.json"))
    entry.write_text(entry.read_text()[:40])
    assert main(argv + ["--resume"]) == 0
    assert "resuming: 1/2" in capsys.readouterr().err
    assert main(argv + ["--resume", "--cache-dir", str(tmp_path / "fresh")]) == 0
    assert "starting fresh (2 unique points)" in capsys.readouterr().err


def test_cli_resume_requires_cache_dir(capsys):
    from repro.cli import main

    assert main(["sweep", "--kind", "quality", "--resume"]) == 2
    assert "--resume needs --cache-dir" in capsys.readouterr().err
