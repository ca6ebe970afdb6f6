"""Fault tolerance for sweep execution.

Everything the engine needs to keep a grid alive when individual points
misbehave lives here:

- :class:`RetryPolicy` — how many attempts a point gets, the per-point
  timeout, and a *deterministic* seeded exponential backoff.  Backoff
  delays are a pure function of ``(seed, key, attempt)`` — no wall-clock
  randomness — so a replayed sweep waits the same milliseconds in the same
  places and two engines never disagree about a schedule.
- :class:`FailedPoint` — the structured record a point leaves behind when
  its attempts are exhausted under ``on_error="collect"``: the operation,
  its parameters, the store key, the failure reason, the formatted
  exception chain, and the attempt count.  Failures are *returned*, never
  cached: a FailedPoint is not a store record and a retried sweep will
  re-evaluate the point from scratch.
- :class:`FaultInjector` — a seed-driven chaos harness that deterministically
  injects worker exceptions, hangs, worker-process crashes, and corrupted
  on-disk store entries.  The injection plan is a pure function of
  ``(seed, key, attempt)``, so a chaos test replays bit-identically; by
  default faults fire only on each point's first attempt, so any sweep with
  retries enabled must converge to the exact records of an unfaulted run.

Crash-safe resume needs nothing from this module: the engine answers every
point already in its :class:`~repro.runtime.store.ResultStore` from there,
so a killed sweep rerun on the same cache directory computes only the
missing points and returns records bit-identical to a straight-through run.

See ``docs/user-guide/robustness.md`` for the guided tour.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "FailedPoint",
    "FaultInjector",
    "InjectedFault",
    "RetryPolicy",
    "error_chain",
]


def _unit(seed: int, *parts) -> float:
    """A deterministic uniform in [0, 1) from a seed and string-able parts.

    SHA-256 over the joined parts, not ``random``: the value is identical in
    every process, on every platform, and across interpreter restarts —
    which is what makes injected fault plans and backoff jitter replayable.
    """
    blob = ":".join([str(seed), *map(str, parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64


def error_chain(exc: BaseException) -> tuple[str, ...]:
    """The formatted ``raise ... from ...`` chain, outermost first."""
    chain: list[str] = []
    seen: set[int] = set()
    cur: BaseException | None = exc
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        chain.append(f"{type(cur).__name__}: {cur}")
        cur = cur.__cause__ or cur.__context__
    return tuple(chain)


# -- the retry policy ---------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine treats a failing grid point.

    ``max_attempts`` counts *total* tries (1 = the seed behaviour: no
    retries).  ``timeout_s`` bounds one attempt's wall-clock on the thread
    and process executors (the serial executor cannot preempt itself; see
    the robustness guide).  Backoff before retry ``n`` (n >= 2) is::

        base * factor**(n - 2) * jitter(seed, key, n)   capped at backoff_max_s

    where ``jitter`` is a deterministic multiplier in ``[1 - j, 1 + j]``
    derived by hashing ``(seed, key, n)`` — reproducible, never wall-clock
    random.  The default base of 0 means retries are immediate.

    Exceptions listed in ``non_retryable`` fail the point on first raise;
    by default only :class:`~repro.errors.ConfigurationError` — a bad
    parameter will not get better on a second try.
    """

    max_attempts: int = 1
    timeout_s: float | None = None
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    backoff_max_s: float = 30.0
    seed: int = 0
    non_retryable: tuple[type, ...] = (ConfigurationError,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not 0 <= self.backoff_jitter <= 1:
            raise ConfigurationError("backoff_jitter must be in [0, 1]")
        if self.backoff_max_s < 0:
            raise ConfigurationError("backoff_max_s must be >= 0")

    def retryable(self, exc: BaseException) -> bool:
        """Whether a failed attempt may be re-submitted."""
        return not isinstance(exc, self.non_retryable)

    def backoff_s(self, key: str, attempt: int) -> float:
        """The deterministic delay before ``attempt`` (first retry = 2)."""
        if attempt < 2 or self.backoff_base_s == 0:
            return 0.0
        raw = self.backoff_base_s * self.backoff_factor ** (attempt - 2)
        jitter = 1.0 + self.backoff_jitter * (2 * _unit(self.seed, key, attempt) - 1)
        return min(raw * jitter, self.backoff_max_s)


# -- the failure record -------------------------------------------------------


@dataclass(frozen=True)
class FailedPoint:
    """One grid point that exhausted its attempts (``on_error="collect"``).

    Occupies the point's position in the records list so spec order is
    preserved; within-run duplicates of the same key alias onto one
    FailedPoint exactly as they would onto one record.  ``params`` is the
    sorted ``(name, value)`` tuple form (hashable, like ``GridPoint``);
    ``reason`` is ``"error"``, ``"timeout"``, or ``"crash"``.
    """

    op: str
    params: tuple[tuple[str, object], ...]
    key: str
    reason: str
    error_chain: tuple[str, ...]
    attempts: int

    def as_params(self) -> dict:
        """The point's parameters as a plain dict."""
        return dict(self.params)

    def to_wire(self) -> dict:
        """A JSON-safe tagged dict for ``repro sweep --json`` output."""
        return {
            "__failed__": True,
            "op": self.op,
            "params": {k: repr(v) if isinstance(v, float) and v != v else v
                       for k, v in self.params},
            "key": self.key,
            "reason": self.reason,
            "error_chain": list(self.error_chain),
            "attempts": self.attempts,
        }


# -- the fault-injection harness ----------------------------------------------


class InjectedFault(RuntimeError):
    """The exception a :class:`FaultInjector` raises for an injected error."""


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic, seed-driven chaos for sweep testing.

    Each rate is the probability (per point-attempt) of that fault, decided
    by hashing ``(seed, key, attempt)`` — the same plan replays on every
    run and in every process, and the injector pickles cleanly into process
    workers.  Rates are evaluated in order error -> hang -> crash over one
    uniform draw, so they must sum to <= 1.

    Faults fire only on attempts ``<= max_attempt`` (default: the first),
    which guarantees that a sweep with enough retry budget converges to the
    exact records an unfaulted run produces — the invariant the chaos
    battery pins.

    - ``error``: raises :class:`InjectedFault` in the worker.
    - ``hang``: sleeps ``hang_s`` before evaluating (trip a shorter
      :attr:`RetryPolicy.timeout_s` to exercise the timeout path).
    - ``crash``: ``os._exit`` inside a process-pool worker (the real
      ``BrokenProcessPool`` discipline); downgraded to an
      :class:`InjectedFault` on the serial/thread executors, which share
      the parent process.
    - ``corrupt_rate`` (decided per key, not per attempt): after a record
      is persisted, its on-disk entry is deterministically garbled — the
      checksum/quarantine path recomputes it on the next cold read.
    """

    seed: int = 0
    error_rate: float = 0.0
    hang_rate: float = 0.0
    crash_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_s: float = 0.5
    max_attempt: int = 1

    def __post_init__(self):
        for name in ("error_rate", "hang_rate", "crash_rate", "corrupt_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.error_rate + self.hang_rate + self.crash_rate > 1.0 + 1e-12:
            raise ConfigurationError("error/hang/crash rates must sum to <= 1")
        if self.hang_s < 0:
            raise ConfigurationError("hang_s must be >= 0")
        if self.max_attempt < 0:
            raise ConfigurationError("max_attempt must be >= 0")

    def plan(self, key: str, attempt: int) -> str:
        """The fault for one attempt: 'ok', 'error', 'hang', or 'crash'."""
        if attempt > self.max_attempt:
            return "ok"
        u = _unit(self.seed, key, attempt, "action")
        if u < self.error_rate:
            return "error"
        if u < self.error_rate + self.hang_rate:
            return "hang"
        if u < self.error_rate + self.hang_rate + self.crash_rate:
            return "crash"
        return "ok"

    def apply(self, key: str, attempt: int, in_process_worker: bool = False) -> None:
        """Execute the planned fault for this attempt (no-op for 'ok')."""
        action = self.plan(key, attempt)
        if action == "error":
            raise InjectedFault(
                f"injected worker error (key {key[:12]}..., attempt {attempt})"
            )
        if action == "hang":
            time.sleep(self.hang_s)
        elif action == "crash":
            if in_process_worker:
                os._exit(86)  # hard crash: no cleanup, pool sees a dead worker
            raise InjectedFault(
                f"injected worker crash (key {key[:12]}..., attempt {attempt}; "
                "simulated as an exception outside a process pool)"
            )

    def should_corrupt(self, key: str) -> bool:
        """Whether this key's disk entry gets garbled after its first write."""
        return _unit(self.seed, key, "corrupt") < self.corrupt_rate

    def corrupt(self, store, key: str) -> None:
        """Deterministically garble ``key``'s on-disk entry (if any)."""
        if store.cache_dir is None:
            return
        path = store._disk_path(key)
        try:
            text = path.read_text()
        except OSError:
            return
        # Truncate mid-payload: half the entries become invalid JSON, the
        # rest parse but fail the checksum — both corruption flavours.
        path.write_text(text[: max(1, len(text) // 2)])
