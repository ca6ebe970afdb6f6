"""The parallel, memoizing, fault-tolerant sweep engine.

:class:`SweepEngine` turns a :class:`~repro.runtime.spec.SweepSpec` into
records: it expands the grid, answers every point it can from its
:class:`~repro.runtime.store.ResultStore`, deduplicates the rest (two
figures asking for the same point in one run still cost one evaluation),
fans the remainder out over a serial loop, a thread pool, or a process
pool, and returns records in the spec's deterministic order — identical to
what the seed ``Testbed`` loops produced, whatever the executor.

Failures are isolated per point.  A failing attempt is re-submitted under
the engine's :class:`~repro.runtime.faults.RetryPolicy` (attempt budget,
per-point timeout, deterministic seeded backoff); a crashed process worker
(``BrokenProcessPool``) costs a pool rebuild and a re-queue of only the
lost in-flight points — completed records are never discarded; and a point
that exhausts its attempts either re-raises (``on_error="raise"``, the
default and the seed behaviour) or surfaces as a structured
:class:`~repro.runtime.faults.FailedPoint` in its grid position
(``on_error="collect"``).  Each computed record lands in the store as it
completes, so a killed sweep rerun on the same disk-backed store answers
its finished points from there and returns bit-identical records.

Process workers rebuild the testbed once per process from a picklable
config and keep it in a module global keyed by the testbed fingerprint, so
a long sweep pays the dataset-generation cost once per worker, not once
per point.  Every substrate under the testbed is a deterministic
simulation, which is what makes ``parallel == serial`` an equality, not an
approximation.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro.obs.trace import active_tracer

from repro.errors import ConfigurationError
from repro.runtime import registry
from repro.runtime.faults import FailedPoint, RetryPolicy, error_chain
from repro.runtime.spec import GridPoint, SweepSpec
from repro.runtime.store import ResultStore, default_store, point_key, testbed_fingerprint

__all__ = ["SweepEvent", "EngineStats", "SweepEngine", "EXECUTORS", "ON_ERROR"]

EXECUTORS = ("serial", "thread", "process")
ON_ERROR = ("raise", "collect")


@dataclass(frozen=True)
class SweepEvent:
    """One progress notification from a sweep run.

    ``kind`` is ``"start"`` (total known), ``"point"`` (one record ready;
    ``cached`` says whether it came from the store), ``"retry"`` (an
    attempt failed and the point was re-queued; ``attempt`` is the attempt
    that failed, ``error`` its message), ``"failed"`` (attempts exhausted
    under ``on_error="collect"``), or ``"finish"``.
    """

    kind: str
    index: int = 0
    total: int = 0
    op: str = ""
    key: str = ""
    cached: bool = False
    attempt: int = 0
    error: str = ""
    #: Wall seconds since the run started when this event was emitted.
    #: Observability payload only — never part of records or cache keys.
    wall_time_s: float = 0.0
    #: Duration of the attempt behind a "point" event (0.0 for cache hits;
    #: for process-pool points this spans submit→completion, queueing
    #: included, since the worker clock is not observable from the parent).
    attempt_s: float = 0.0


@dataclass
class EngineStats:
    """Evaluation counters for one engine (cumulative across runs)."""

    computed: int = 0
    cache_hits: int = 0
    runs: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    pool_rebuilds: int = 0

    def snapshot(self) -> dict:
        return {
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "runs": self.runs,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "pool_rebuilds": self.pool_rebuilds,
        }


# -- process-pool plumbing ----------------------------------------------------

#: Per-worker-process testbeds, keyed by fingerprint hash: rebuilt at most
#: once per (process, testbed config), reused across all points.  The key
#: covers the full testbed fingerprint, so a parent that mutates its config
#: between runs can never be served a stale worker testbed.
_WORKER_TESTBEDS: dict = {}


def _build_testbed(config: dict):
    from repro.core.experiments import Testbed

    return Testbed(**config)


def _evaluate_in_worker(config: dict, config_id: str, op: str, kwargs: dict,
                        fault=None, key: str = "", attempt: int = 1):
    """Module-level so ProcessPoolExecutor can pickle it by reference."""
    if fault is not None:
        fault.apply(key, attempt, in_process_worker=True)
    testbed = _WORKER_TESTBEDS.get(config_id)
    if testbed is None:
        testbed = _build_testbed(config)
        _WORKER_TESTBEDS[config_id] = testbed
    return registry.evaluate_op(testbed, op, kwargs)


class _Task:
    """Mutable per-point attempt state while a sweep is in flight."""

    __slots__ = ("index", "key", "point", "attempts")

    def __init__(self, index: int, key: str, point: GridPoint):
        self.index = index
        self.key = key
        self.point = point
        self.attempts = 0  # attempts charged so far


class SweepEngine:
    """Expand, memoize, and (optionally) parallelise testbed sweeps.

    Parameters
    ----------
    testbed:
        The :class:`~repro.core.experiments.Testbed` to evaluate points on;
        a default bench-scale one is built when omitted.
    store:
        Result cache.  Defaults to the process-wide
        :func:`~repro.runtime.store.default_store`, so every engine in a
        session shares hits; pass a fresh :class:`ResultStore` (optionally
        with ``cache_dir``) to isolate or persist.
    executor:
        ``"serial"`` (in-process loop), ``"thread"``, or ``"process"``.
    max_workers:
        Pool width for the parallel executors; default ``os.cpu_count()``.
    on_event:
        Optional callable receiving :class:`SweepEvent` progress updates.
    retry_policy:
        A :class:`~repro.runtime.faults.RetryPolicy`; the default gives
        every point a single attempt and no timeout (the seed behaviour).
    on_error:
        ``"raise"`` re-raises a point's final error (default);
        ``"collect"`` records it as a :class:`FailedPoint` in the point's
        grid position and keeps sweeping.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` that
        deterministically injects worker faults — the chaos-test harness,
        never set in production runs.
    """

    def __init__(
        self,
        testbed=None,
        store: ResultStore | None = None,
        executor: str = "serial",
        max_workers: int | None = None,
        on_event=None,
        retry_policy: RetryPolicy | None = None,
        on_error: str = "raise",
        fault_injector=None,
    ):
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if on_error not in ON_ERROR:
            raise ConfigurationError(
                f"unknown on_error {on_error!r}; expected one of {ON_ERROR}"
            )
        if testbed is None:
            from repro.core.experiments import Testbed

            testbed = Testbed()
        self.testbed = testbed
        self.store = store if store is not None else default_store()
        self.executor = executor
        self.max_workers = max_workers or os.cpu_count() or 1
        self.on_event = on_event
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.on_error = on_error
        self.fault_injector = fault_injector
        self.stats = EngineStats()
        self._run_t0: float | None = None

    # -- internals -----------------------------------------------------------

    def _emit(self, event: SweepEvent) -> None:
        if self.on_event is None:
            return
        if self._run_t0 is not None and event.wall_time_s == 0.0:
            event = dataclasses.replace(
                event, wall_time_s=time.perf_counter() - self._run_t0
            )
        self.on_event(event)

    def _key(self, point: GridPoint) -> str:
        # The fingerprint is recomputed per lookup, not cached at engine
        # construction: mutating the testbed (scale, models) between runs
        # must change every key, never serve results for the old config.
        return point_key(point.op, point.as_kwargs(), testbed_fingerprint(self.testbed))

    def _compute_local(self, point: GridPoint):
        # Registry dispatch: a kind-registered evaluate entrypoint when one
        # exists for the op, otherwise the Testbed method of the same name.
        return registry.evaluate_op(self.testbed, point.op, point.as_kwargs())

    def _attempt_local(self, point: GridPoint, key: str, attempt: int):
        """One serial/thread attempt, with any injected fault applied."""
        if self.fault_injector is not None:
            self.fault_injector.apply(key, attempt)
        tracer = active_tracer()
        if tracer is None:
            return self._compute_local(point)
        import threading

        with tracer.span(
            f"evaluate:{point.op}", track=threading.current_thread().name,
            op=point.op, key=key[:12], attempt=attempt,
        ):
            return self._compute_local(point)

    def _testbed_config(self) -> dict:
        """Picklable kwargs that rebuild an equivalent testbed in a worker."""
        tb = self.testbed
        return {
            "scale": tb.scale,
            "pfs": tb.pfs,
            "throughput": tb.throughput,
            "sample_interval": tb.sample_interval,
            "verify_bounds": tb.verify_bounds,
        }

    # -- completion / failure bookkeeping ------------------------------------

    def _complete(self, task: _Task, record, total: int,
                  attempt_s: float = 0.0) -> None:
        self.store.put(task.key, record)
        if (
            self.fault_injector is not None
            and self.store.cache_dir is not None
            and self.fault_injector.should_corrupt(task.key)
        ):
            self.fault_injector.corrupt(self.store, task.key)
        self.stats.computed += 1
        self._emit(
            SweepEvent("point", index=task.index, total=total,
                       op=task.point.op, key=task.key, attempt_s=attempt_s)
        )

    def _should_retry(self, task: _Task, exc: BaseException) -> bool:
        return (
            task.attempts < self.retry_policy.max_attempts
            and self.retry_policy.retryable(exc)
        )

    def _note_retry(self, task: _Task, exc: BaseException, total: int) -> None:
        self.stats.retries += 1
        self._emit(
            SweepEvent("retry", index=task.index, total=total, op=task.point.op,
                       key=task.key, attempt=task.attempts, error=str(exc))
        )

    def _fail(self, task: _Task, exc: BaseException, total: int,
              reason: str) -> FailedPoint:
        """Attempts exhausted: raise or produce the structured failure."""
        self.stats.failures += 1
        failed = FailedPoint(
            op=task.point.op,
            params=task.point.kwargs,
            key=task.key,
            reason=reason,
            error_chain=error_chain(exc),
            attempts=task.attempts,
        )
        self._emit(
            SweepEvent("failed", index=task.index, total=total, op=task.point.op,
                       key=task.key, attempt=task.attempts, error=str(exc))
        )
        if self.on_error == "raise":
            raise exc
        return failed

    # -- serial execution ----------------------------------------------------

    def _run_serial(self, pending: list[tuple[int, str, GridPoint]], total: int) -> dict:
        """Evaluate points in-process with per-point retry isolation.

        The serial executor cannot preempt a running attempt, so
        ``timeout_s`` is not enforced here — use the thread or process
        executor for points that may hang.
        """
        computed: dict[str, object] = {}
        for index, key, point in pending:
            task = _Task(index, key, point)
            while True:
                task.attempts += 1
                attempt_t0 = time.perf_counter()
                try:
                    record = self._attempt_local(point, key, task.attempts)
                except Exception as exc:
                    if self._should_retry(task, exc):
                        self._note_retry(task, exc, total)
                        delay = self.retry_policy.backoff_s(key, task.attempts + 1)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    computed[key] = self._fail(task, exc, total, reason="error")
                    break
                computed[key] = record
                self._complete(task, record, total,
                               attempt_s=time.perf_counter() - attempt_t0)
                break
        return computed

    # -- pool execution ------------------------------------------------------

    def _make_pool(self):
        if self.executor == "thread":
            return ThreadPoolExecutor(max_workers=self.max_workers)
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)

    @staticmethod
    def _kill_pool(pool) -> None:
        """Tear a process pool down *now*, stuck workers included."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit(self, pool, task: _Task, config, config_id):
        task.attempts += 1
        if self.executor == "thread":
            return pool.submit(self._attempt_local, task.point, task.key, task.attempts)
        return pool.submit(
            _evaluate_in_worker, config, config_id, task.point.op,
            task.point.as_kwargs(), self.fault_injector, task.key, task.attempts,
        )

    def _run_pool(self, pending: list[tuple[int, str, GridPoint]], total: int) -> dict:
        """Evaluate deduplicated points on a pool; returns {key: record}.

        Per-point failure isolation: a worker exception costs one attempt
        for that point only; a timed-out point is charged and re-queued
        (the process pool is rebuilt to reclaim the stuck worker, the
        thread future is abandoned); a ``BrokenProcessPool`` rebuilds the
        pool and re-queues exactly the in-flight points — every completed
        record is already in the store and is never recomputed.
        """
        policy = self.retry_policy
        computed: dict[str, object] = {}
        config = self._testbed_config()
        config_id = point_key("__testbed__", {}, testbed_fingerprint(self.testbed))
        # ready_at gates backoff without blocking the whole pool loop.
        queue: deque[tuple[float, _Task]] = deque(
            (0.0, _Task(index, key, point)) for index, key, point in pending
        )
        pool = self._make_pool()
        futures: dict = {}  # Future -> (task, deadline | None, submit_t)
        abandoned: set = set()  # timed-out thread futures; results discarded
        try:
            while queue or futures:
                now = time.monotonic()
                # Submit everything whose backoff delay has elapsed.
                deferred: deque = deque()
                while queue:
                    ready_at, task = queue.popleft()
                    if ready_at > now:
                        deferred.append((ready_at, task))
                        continue
                    fut = self._submit(pool, task, config, config_id)
                    deadline = (
                        now + policy.timeout_s if policy.timeout_s is not None else None
                    )
                    futures[fut] = (task, deadline, time.monotonic())
                queue = deferred
                if not futures:
                    # Everything is backing off; sleep to the nearest ready_at.
                    time.sleep(max(0.0, min(r for r, _ in queue) - time.monotonic()))
                    continue
                wait_s = None
                deadlines = [d for _, d, _ in futures.values() if d is not None]
                if deadlines:
                    wait_s = max(0.0, min(deadlines) - time.monotonic())
                if queue:
                    next_ready = max(0.0, min(r for r, _ in queue) - time.monotonic())
                    wait_s = next_ready if wait_s is None else min(wait_s, next_ready)
                done, _ = wait(
                    set(futures) | abandoned, timeout=wait_s,
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for fut in done:
                    if fut in abandoned:
                        abandoned.discard(fut)  # late result of a timed-out try
                        continue
                    task, _deadline, submit_t = futures.pop(fut)
                    try:
                        record = fut.result()
                    except BrokenExecutor as exc:
                        # A BrokenProcessPool, caught by its base class so
                        # that no process-pool import is needed (the thread
                        # pools here have no initializer to break).  The
                        # pool died under this future.  Whether this task
                        # crashed it or merely rode along is unknowable, so
                        # every lost point is charged one attempt — the one
                        # that deterministically re-crashes otherwise.
                        pool_broken = True
                        if self._should_retry(task, exc):
                            self._note_retry(task, exc, total)
                            queue.append((0.0, task))
                        else:
                            computed[task.key] = self._fail(
                                task, exc, total, reason="crash"
                            )
                    except Exception as exc:
                        if self._should_retry(task, exc):
                            self._note_retry(task, exc, total)
                            delay = policy.backoff_s(task.key, task.attempts + 1)
                            queue.append((time.monotonic() + delay, task))
                        else:
                            computed[task.key] = self._fail(
                                task, exc, total, reason="error"
                            )
                    else:
                        computed[task.key] = record
                        self._complete(task, record, total,
                                       attempt_s=time.monotonic() - submit_t)
                if pool_broken:
                    # Requeue any stragglers the pool manager has not failed
                    # yet (uncharged: their fate is already decided).
                    for fut, (task, _deadline, _submit_t) in list(futures.items()):
                        queue.append((0.0, task))
                    futures.clear()
                    pool.shutdown(wait=False)
                    pool = self._make_pool()
                    self.stats.pool_rebuilds += 1
                    continue
                # Deadline sweep: charge expired futures as timeouts.  The
                # clock bounds *execution*, not queueing — a future still
                # waiting behind busy workers gets its deadline pushed out
                # rather than a timeout it never had a chance to beat.
                now = time.monotonic()
                expired = []
                for fut, (task, deadline, submit_t) in list(futures.items()):
                    if deadline is None or deadline > now or fut.done():
                        continue
                    if not fut.running():
                        futures[fut] = (task, now + policy.timeout_s, submit_t)
                        continue
                    expired.append((fut, task))
                if not expired:
                    continue
                for fut, task in expired:
                    del futures[fut]
                    self.stats.timeouts += 1
                    exc = TimeoutError(
                        f"grid point exceeded the {policy.timeout_s}s per-point "
                        f"timeout (op {task.point.op}, attempt {task.attempts})"
                    )
                    if self._should_retry(task, exc):
                        self._note_retry(task, exc, total)
                        delay = policy.backoff_s(task.key, task.attempts + 1)
                        queue.append((time.monotonic() + delay, task))
                    else:
                        computed[task.key] = self._fail(
                            task, exc, total, reason="timeout"
                        )
                if self.executor == "thread":
                    # A thread cannot be killed: abandon the future (its
                    # eventual result is discarded) and move on.
                    abandoned.update(fut for fut, _ in expired)
                else:
                    # Reclaim stuck workers: kill the pool, re-queue the
                    # innocent in-flight points uncharged, start fresh.
                    for fut, (task, _deadline, _submit_t) in list(futures.items()):
                        queue.append((0.0, task))
                    futures.clear()
                    self._kill_pool(pool)
                    pool = self._make_pool()
                    self.stats.pool_rebuilds += 1
        finally:
            if self.executor == "process":
                self._kill_pool(pool)
            else:
                # Let abandoned (timed-out) threads drain in the background
                # instead of blocking the caller on them.
                pool.shutdown(wait=not abandoned)
        return computed

    # -- public API ----------------------------------------------------------

    def run(self, spec: SweepSpec) -> list:
        """Evaluate every grid point of ``spec``; records in spec order.

        With ``on_error="collect"``, positions whose point exhausted its
        attempts hold a :class:`~repro.runtime.faults.FailedPoint` instead
        of a record.
        """
        points = spec.points()
        keys = [self._key(p) for p in points]
        self.stats.runs += 1
        self._run_t0 = time.perf_counter()
        try:
            self._emit(SweepEvent("start", total=len(points)))

            results: dict[int, object] = {}
            pending: list[tuple[int, str, GridPoint]] = []
            scheduled: set[str] = set()
            for i, (key, point) in enumerate(zip(keys, points)):
                record = self.store.get(key)
                if record is not None:
                    results[i] = record
                    self.stats.cache_hits += 1
                    self._emit(
                        SweepEvent(
                            "point", index=i, total=len(points), op=point.op,
                            key=key, cached=True,
                        )
                    )
                elif key not in scheduled:
                    scheduled.add(key)
                    pending.append((i, key, point))

            if pending:
                if self.executor == "serial" or len(pending) == 1:
                    computed = self._run_serial(pending, total=len(points))
                else:
                    computed = self._run_pool(pending, total=len(points))
                # Fill in every index, including within-run duplicates that
                # aliased onto a single scheduled evaluation.
                for i in range(len(points)):
                    if i not in results:
                        results[i] = computed[keys[i]]

            self._emit(SweepEvent("finish", total=len(points)))
            return [results[i] for i in range(len(points))]
        finally:
            self._run_t0 = None
            tracer = active_tracer()
            if tracer is not None:
                tracer.metrics.merge("engine", self.stats.snapshot())
                tracer.metrics.merge("store", self.store.stats)

    def evaluate(self, op: str, **kwargs):
        """Single-point path: memoized lookup-or-compute for one operation."""
        point = GridPoint.make(op, **kwargs)
        key = self._key(point)
        record = self.store.get(key)
        if record is not None:
            self.stats.cache_hits += 1
            return record
        record = self._compute_local(point)
        self.store.put(key, record)
        self.stats.computed += 1
        return record
