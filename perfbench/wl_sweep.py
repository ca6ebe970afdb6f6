"""``sweep``: a cold then a warm ``SweepSpec(kind="io")`` sweep per op.

Each op runs in a fresh interpreter (``child.py sweep-op``), because
``Testbed.roundtrip`` memoizes in a module global and ``repro.data.generate``
is an ``lru_cache``: in one process a cold sweep turns warm after its first
repetition.  The cold sweep runs the serial ``SweepEngine`` against an empty
``ResultStore`` cache directory; the warm sweep builds a new ``ResultStore``
on the same directory, so every point is a disk hit.

Grid: cesm/hacc/nyx/s3d x sz2/sz3/qoz/zfp/szx x three bounds drawn from the
seed (one log-uniform draw in each third of [1e-5, 1e-1]) x hdf5/netcdf x the
CLI's default CPU (max9480), plus the uncompressed baseline.  The draws are stratified
across ops: every STRATA consecutive ops of a run take each sixth of each
third once, so runs of different seeds sweep nearly the same bounds.

Every op is checked: the cold records pass ``registry.check_records`` and
the io kind's invariants, the warm records are identical on the wire, and
the warm sweep computes nothing.  A traced run also checks that the traced
op's records and counts equal those of its untraced twin.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack

import numpy as np

from common import (
    Result,
    SegmentClock,
    codec_metrics,
    interquartile_mean,
    median,
    paired_ops,
    percentile,
    run_child,
    scratch_dir,
    self_times,
    setup_seconds,
    spans_within,
    sub_seed,
    trace_overhead,
)

CODECS = ("sz2", "sz3", "qoz", "zfp", "szx")
DATASETS = ("cesm", "hacc", "nyx", "s3d")
#: The sweep CLI's default CPU.  A second Table-I CPU doubles the points,
#: and at the default 10 ms energy sampling step a run then holds too few
#: ops to settle.
CPUS = ("max9480",)
LIBS = ("hdf5", "netcdf")
#: The testbed ``repro sweep --scale tiny`` builds: small real arrays and the
#: default energy sampling step every caller runs with.
SCALE = "tiny"
#: Minimum ops per untraced run (op pairs per traced run).
MIN_OPS = 3
#: Sub-strata per third of the bound range (about the ops in one run).
STRATA = 6
#: Sweep points between reference-kernel probes (see ``SegmentClock``): a
#: cold op of 128 points is calibrated in 16 segments of about 0.35 s.
PROBE_EVERY = 8


def make_spec(seed: int, index: int):
    from repro.runtime import SweepSpec

    order = np.random.default_rng(sub_seed(seed))
    strata = [order.permutation(STRATA)[index % STRATA] for _ in range(3)]
    jitter = np.random.default_rng(sub_seed(seed, index)).uniform(size=3)
    width = 4.0 / 3.0  # decades per third of [1e-5, 1e-1]
    bounds = tuple(
        float(10.0 ** (-5.0 + width * (third + (strata[third] + jitter[third]) / STRATA)))
        for third in range(3)
    )
    return SweepSpec(kind="io", datasets=DATASETS, codecs=CODECS, bounds=bounds,
                     cpus=CPUS, io_libraries=LIBS, include_baseline=True)


def setup(seed: int, index: int = 0):
    from repro.core.experiments import Testbed

    return Testbed(scale=SCALE), make_spec(seed, index)


# -- child side ---------------------------------------------------------------


def child_op(seed: int, index: int, cache, trace: bool) -> dict:
    """One cold+warm op in this (fresh) interpreter; returns a JSON doc."""
    from repro.obs import tracing
    from repro.runtime import ResultStore, SweepEngine, point_key, registry
    from repro.runtime import testbed_fingerprint

    testbed, spec = setup(seed, index)
    doc = {}
    clocks = {side: SegmentClock(PROBE_EVERY) for side in ("cold", "warm")}

    def sweep(side, store, tracer):
        clock = clocks[side]

        def on_event(event):
            if event.kind == "point":
                clock.tick()

        engine = SweepEngine(testbed=testbed, store=store, executor="serial",
                             on_event=on_event)
        clock.start()
        t0 = tracer.now() if tracer else 0.0
        records = engine.run(spec)
        window = (t0, tracer.now() if tracer else 0.0)
        clock.stop()
        return engine, records, window

    with ExitStack() as stack:
        tracer = stack.enter_context(tracing()) if trace else None
        if tracer is not None:
            t0 = time.perf_counter()
            fingerprint = testbed_fingerprint(testbed)
            for point in spec.points():
                point_key(point.op, point.as_kwargs(), fingerprint)
            doc["expand_s"] = time.perf_counter() - t0
        cold_engine, cold, cold_window = sweep("cold", ResultStore(cache), tracer)
        warm_store = ResultStore(cache)
        warm_engine, warm, warm_window = sweep("warm", warm_store, tracer)
        spans = tracer.spans if tracer else []

    cold_wire, warm_wire = registry.to_wire(cold), registry.to_wire(warm)
    errors = registry.check_records(registry.get_kind("io"), cold_wire)
    if warm_wire != cold_wire:
        errors.append("warm records differ from cold records")
    if warm_engine.stats.computed or warm_engine.stats.cache_hits != len(cold):
        errors.append(f"warm sweep was not all hits: {warm_engine.stats.snapshot()}")
    cold_stats, warm_stats = cold_engine.store.stats, warm_store.stats
    doc.update(
        points=len(cold), errors=errors,
        cold_s=clocks["cold"].wall, warm_s=clocks["warm"].wall,
        nominal_s=clocks["cold"].nominal + clocks["warm"].nominal,
        records_sha256=hashlib.sha256(
            json.dumps(cold_wire, sort_keys=True).encode()).hexdigest(),
        counts={
            "runtime.engine.computed": cold_engine.stats.computed,
            "runtime.engine.cache_hits": warm_engine.stats.cache_hits,
            "runtime.store.disk_hits": warm_stats["disk_hits"],
            "runtime.store.misses": cold_stats["misses"] + warm_stats["misses"],
            "runtime.store.corrupt_quarantined":
                cold_stats["corrupt_quarantined"] + warm_stats["corrupt_quarantined"],
        },
    )
    if tracer is not None:
        doc["layers"] = _layers(spans_within(spans, *cold_window),
                                spans_within(spans, *warm_window))
    return doc


def _layers(cold_spans, warm_spans) -> dict:
    """Raw per-layer seconds and latencies of one traced op."""
    codec = sum(s.duration_s for s in cold_spans
                if s.name.startswith(("compress:", "decompress:")))
    energy = sum(own for s, own in self_times(cold_spans)
                 if s.name.startswith("evaluate:"))
    puts = [s.duration_s for s in cold_spans if s.name == "store.put"]
    gets = [s.duration_s for s in warm_spans if s.name == "store.get"]
    cold_gets = [s.duration_s for s in cold_spans if s.name == "store.get"]
    return {
        **{k: v for k, (v, _) in codec_metrics(cold_spans, CODECS).items()},
        "core.roundtrip_s": codec,
        "energy.model_s": energy,
        "runtime.store.put_us.p50": percentile(puts, 50) * 1e6,
        "runtime.store.put_us.p90": percentile(puts, 90) * 1e6,
        "runtime.store.get_us.p50": percentile(gets, 50) * 1e6,
        "runtime.store.get_us.p90": percentile(gets, 90) * 1e6,
        "named_s": codec + energy + sum(puts) + sum(gets) + sum(cold_gets),
    }


# -- parent side --------------------------------------------------------------


def _op(result, seed: int, index: int, trace: bool) -> dict | None:
    result.attempted += 1
    with scratch_dir(f"sweep-{index}") as cache:
        try:
            doc = run_child("sweep-op", str(seed), str(index), str(cache),
                            "1" if trace else "0")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            result.fail(f"op {index}: {type(exc).__name__}: {exc}")
            return None
    if doc["errors"]:
        result.fail(*(f"op {index}: {error}" for error in doc["errors"]))
        return None
    return doc


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup_s = setup_seconds("sweep", seed)
    pairs = paired_ops(
        result, seconds, trace, MIN_OPS,
        lambda index, traced: _op(result, seed, index, traced),
        # Records and counts are exact: tracing must not change them.
        lambda plain, traced: [key for key in ("records_sha256", "counts")
                               if plain[key] != traced[key]],
    )
    plain = [p for p, _ in pairs]
    total = [d["cold_s"] + d["warm_s"] for d in plain]
    result.report.append(
        f"{len(plain)} ops of {plain[0]['points'] if plain else 0} points; "
        f"cold_points_per_s = {median(d['points'] / d['cold_s'] for d in plain):.4g}"
        f"   warm_points_per_s = {median(d['points'] / d['warm_s'] for d in plain):.4g}"
    )
    if not trace:
        # Only 3-4 ops fit in a run: their interquartile mean (the mean of
        # all of them below four) is steadier across runs than their median.
        result.put_times(setup_s, [(t, d["nominal_s"]) for t, d in zip(total, plain)],
                         reduce=interquartile_mean)
        return result
    traced = [t for _, t in pairs]
    for key in traced[0]["layers"] if traced else ():
        if key.endswith("compressed_bytes"):
            result.put(key, traced[0]["layers"][key], "B")
        elif key != "named_s":
            unit = "us" if "_us." in key else "s"
            result.put(key, median(t["layers"][key] for t in traced), unit)
    result.put("runtime.registry.expand_s", median(t["expand_s"] for t in traced), "s")
    if traced:
        for key, count in traced[0]["counts"].items():
            result.put(key, count, "count")
        result.put("runtime.warm_hit_ratio",
                   traced[0]["counts"]["runtime.engine.cache_hits"] / traced[0]["points"],
                   "ratio")
    result.put("coverage", median(
        t["layers"]["named_s"] / (t["cold_s"] + t["warm_s"]) for t in traced), "ratio")
    result.put("trace_overhead", trace_overhead(
        (p["nominal_s"], t["nominal_s"]) for p, t in pairs), "ratio")
    result.report.append(
        "gap (sweep engine loop, point keys, registry dispatch, manifest "
        "journaling) = 1 - coverage"
    )
    return result
