"""Timing, tracing and reporting helpers shared by the perfbench workloads.

Every workload runs a closed loop with one client: one process, one thread,
the serial sweep executor.  End-to-end times come from ``time.perf_counter``
around calls into public functions with tracing off.  The traced run
activates a :class:`repro.obs.Tracer` and adds benchmark-side spans around
public calls (never inside ``src/``); per-layer numbers are self times
computed from those spans.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for container files and sweep caches, inside the checkout.
TMP = ROOT / ".perfbench_tmp"
CHILD = HERE / "child.py"
#: Per-child wall limit; a child that runs longer counts as a failed op.
CHILD_TIMEOUT_S = 150.0
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Workload name -> module (each has ``setup(seed)`` and ``run(...)``).
MODULES = {"dataset-io": "wl_dataset_io", "sweep": "wl_sweep", "cluster": "wl_cluster"}


# -- host calibration ---------------------------------------------------------

#: Wall seconds of one :func:`reference_kernel` call on the nominal host.
#: Time metrics are reported in nominal seconds: wall seconds scaled by
#: ``REF_NOMINAL_S / (kernel time)``, the kernel timed in the same process
#: just before and after each op.  When a shared host drifts slower or
#: faster over minutes, the op and the kernel drift together and the
#: metric holds.
REF_NOMINAL_S = 0.030
#: Kernel calls per op (and per set-up probe).
REF_CALLS = 3


class _Meter:
    """An accumulate-and-track-peak object, as energy meters are written."""

    __slots__ = ("total", "peak")

    def __init__(self):
        self.total = 0.0
        self.peak = 0.0

    def add(self, power: float, dt: float) -> float:
        energy = power * dt
        self.total += energy
        if energy > self.peak:
            self.peak = energy
        return energy


def reference_kernel() -> float:
    """Wall seconds of a fixed Python + NumPy mix that never calls repro.

    The mix mirrors what the workloads spend time on: small-object method
    calls, dict and float arithmetic loops, per-call-dominated small NumPy
    ops and vectorised NumPy passes, all on cache-sized data (a kernel with
    large scattered reads slowed more than the workloads under contention).
    """
    t0 = time.perf_counter()
    meter = _Meter()
    for i in range(30_000):
        meter.add(1.5 + (i % 17) * 0.25, 0.01)
    acc = 0.0
    seen = {}
    for i in range(60_000):
        acc += (i * 0.5) % 7.0
        seen[i & 255] = acc
    small = np.linspace(0.0, 1.0, 64)
    for _ in range(1_000):
        small = np.minimum(small * 1.001 + 0.5, 10.0)
    values = np.arange(4096, dtype=np.float64)
    for _ in range(300):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - t0


def host_seconds() -> float:
    """Median of REF_CALLS reference-kernel timings, taken now."""
    return median(reference_kernel() for _ in range(REF_CALLS))


def nominal(seconds: float, host_s: float) -> float:
    """Wall ``seconds`` measured where the kernel took ``host_s``, in
    nominal seconds (see REF_NOMINAL_S)."""
    return seconds * REF_NOMINAL_S / host_s


def trace_overhead(pairs) -> float:
    """Median over (untraced, traced) op pairs of nominal seconds of the
    traced op over its untraced twin's, minus 1."""
    return median(traced / plain - 1 for plain, traced in pairs)


class SegmentClock:
    """Wall and nominal seconds of a long call, calibrated piecewise.

    A call of seconds outlives the host's speed changes, so one kernel
    timing before and after it calibrates it poorly.  ``tick()`` probes
    the kernel between pieces of the call (the sweep engine's ``on_event``
    hook calls it per point) and every ``every`` ticks closes a segment,
    scaled by the mean of the kernel timings at its two ends.  Probe time
    is left out of both totals.
    """

    def __init__(self, every: int):
        self.every = every
        self.wall = self.nominal = 0.0
        self._ticks = 0
        self._kernel = self._t0 = 0.0

    def start(self) -> None:
        self._kernel = reference_kernel()
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks % self.every == 0:
            self.stop()
            self._t0 = time.perf_counter()

    def stop(self) -> None:
        dt = time.perf_counter() - self._t0
        kernel = reference_kernel()
        self.wall += dt
        self.nominal += nominal(dt, (self._kernel + kernel) / 2)
        self._kernel = kernel


# -- seeds and statistics -----------------------------------------------------


def sub_seed(seed: int, *index: int) -> list[int]:
    """Entropy for op ``index`` of the run seeded ``seed`` (for numpy rngs)."""
    return [int(seed), *map(int, index)]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``: steadier than the median over
    a handful of ops, and still unmoved by one slow outlier."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def peak_rss_mb() -> float:
    """Peak resident set of this process and its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


# -- spans --------------------------------------------------------------------


def spans_within(spans, t0: float, t1: float) -> list:
    """Wall spans that lie inside the window ``[t0, t1]`` of tracer time."""
    return [s for s in spans if s.clock == "wall" and s.t0 >= t0 and s.t1 <= t1]


def self_times(spans) -> list[tuple[object, float]]:
    """``(span, self seconds)`` for single-threaded, properly nested spans.

    A span's self time is its duration minus the durations of the spans
    directly nested in it.
    """
    ordered = sorted(spans, key=lambda s: (s.t0, -s.t1))
    own = [s.duration_s for s in ordered]
    stack: list[int] = []
    for i, span in enumerate(ordered):
        while stack and ordered[stack[-1]].t1 <= span.t0:
            stack.pop()
        if stack:
            own[stack[-1]] -= span.duration_s
        stack.append(i)
    return list(zip(ordered, own))


def layer_self_times(spans, classify) -> dict[str, float]:
    """Self seconds summed per layer; ``classify(span)`` names the layer."""
    out: dict[str, float] = {}
    for span, own in self_times(spans):
        layer = classify(span)
        out[layer] = out.get(layer, 0.0) + own
    return out


def total_duration(spans, name: str) -> float:
    return sum(s.duration_s for s in spans if s.name == name)


def codec_metrics(spans, codecs) -> dict[str, tuple[float, str]]:
    """Per-codec busy seconds and compressed bytes from the codec spans."""
    out = {}
    for codec in codecs:
        out[f"compressors.{codec}.compress_s"] = (
            total_duration(spans, f"compress:{codec}"), "s")
        out[f"compressors.{codec}.decompress_s"] = (
            total_duration(spans, f"decompress:{codec}"), "s")
        out[f"compressors.{codec}.compressed_bytes"] = (sum(
            s.args["out_nbytes"] for s in spans if s.name == f"compress:{codec}"
        ), "B")
    return out


@contextmanager
def spanned(tracer, owner, attr: str, name: str, count_arg: int | None = None):
    """Wrap ``owner.attr`` in a benchmark-side wall span for the block.

    ``count_arg`` names a positional argument whose ``len`` is recorded on
    the span as ``items`` (e.g. the flow count of a fair-share solve).
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        extra = {}
        if count_arg is not None:
            extra["items"] = len(args[count_arg])
        with tracer.span(name, track="bench", **extra):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- scratch space and children -----------------------------------------------


@contextmanager
def scratch_dir(tag: str):
    """A fresh directory under the checkout's scratch space, removed after."""
    path = TMP / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds other entries


def run_child(*args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter; returns its last JSON line.

    Raises ``RuntimeError`` when the child fails or times out (the child is
    killed and reaped by ``subprocess.run`` in that case).
    """
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Median fresh-interpreter set-up time (imports plus input build), in
    nominal seconds; each child times the reference kernel after its set-up."""
    return median(
        nominal(doc["setup_s"], doc["host_s"])
        for doc in (run_child("setup", workload, str(seed))
                    for _ in range(SETUP_REPEATS))
    )


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one benchmark run measured, checked and reports."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def put_times(self, setup_s: float, ops: list[tuple[float, float]],
                  reduce=median) -> None:
        """``setup_s`` (nominal) and ``op_s``: ``reduce`` over the ops'
        nominal times, each op given as (wall seconds, nominal seconds)."""
        self.put("setup_s", setup_s, "s")
        if not ops:
            return  # every op failed; the result is already incorrect
        self.report.append(
            f"raw op wall {reduce(w for w, _ in ops):.4g} s over {len(ops)} ops; "
            f"median nominal/wall {median(n / w for w, n in ops):.4g}"
        )
        self.put("op_s", reduce(n for _, n in ops), "s")

    def fail(self, *messages: str) -> None:
        """Count one failed op; keep the first messages for the report."""
        self.failed += 1
        self.errors.extend(messages[: max(0, 20 - len(self.errors))])

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def emit(self) -> None:
        """Print the human report, then the one-line JSON result last."""
        for line in self.report:
            print(line)
        for message in self.errors:
            print(f"FAILED: {message}")
        for name, (value, unit) in self.metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"error_rate = {rate:.6g} ({self.failed}/{self.attempted} ops)")
        doc = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print(json.dumps(doc))


class Deadline:
    """The run's measuring window of ``seconds`` wall seconds."""

    def __init__(self, seconds: float):
        self.t_end = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.t_end


def paired_ops(result, seconds, trace, min_ops, run_op, differ):
    """Ops ``0, 1, ...`` until ``seconds`` pass (at least ``min_ops``).

    ``run_op(index, traced)`` returns an op's doc, or None when it failed.
    A traced run pairs each traced op with an untraced twin on the same
    inputs, alternating which runs first; ``differ(plain, traced)`` names
    the exact counts that tracing changed, which fails the pair.  Returns
    the ``(plain, traced)`` pairs that succeeded (``traced`` None when
    untraced).
    """
    deadline = Deadline(seconds)
    pairs = []
    index = 0
    while index < min_ops or not deadline.expired():
        sides = (False, True) if trace else (False,)
        docs = {side: run_op(index, side)
                for side in (sides if index % 2 == 0 else sides[::-1])}
        plain, traced = docs[False], docs.get(True)
        if plain is not None and traced is not None:
            changed = differ(plain, traced)
            if changed:
                result.fail(f"op {index}: tracing changed {changed}")
        if plain is not None and (traced is not None or not trace):
            pairs.append((plain, traced))
        index += 1
    return pairs
