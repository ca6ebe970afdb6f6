"""``cluster``: ``simulate_cluster`` on seeded 3-, 30- and 300-tenant scenarios.

Tenants mix szx/sz3/zfp/none with rank counts, compute phases and submit
times drawn from the op's seed; the machine has fewer nodes than the
tenants want at once, so some queue and some are backfilled.  The campaign
is built the way the ``cluster`` experiment kind builds it, and compression
ratios come from one ``Testbed.roundtrip`` per codec during set-up.  An op
solves all three scenarios; no codec runs inside an op.

Every solve is checked against the cluster kind's invariants (every finish
within the makespan; a contended write never beats its dedicated one).
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from common import (
    Result,
    host_seconds,
    interquartile_mean,
    layer_self_times,
    median,
    nominal,
    paired_ops,
    setup_seconds,
    spanned,
    spans_within,
    sub_seed,
    trace_overhead,
)

DATASET = "nyx"
CPU = "max9480"
LIB = "hdf5"
BOUND = 1e-3
MIX = ("szx", "sz3", "zfp", None)
RANKS = (56, 112, 224)
#: Tenant count -> (mean seconds between submissions, tenants per node).
#: The 3- and 30-tenant machines are small enough that tenants queue and
#: are backfilled; the 300-tenant one keeps the fixed point short so its
#: solve time measures how the solver scales, not how many passes it takes.
SHAPES = {3: (1.0, 1), 30: (1.0, 3), 300: (2.0, 2)}
TENANTS = tuple(SHAPES)
MIN_OPS = 3


def setup(seed: int):
    """The machine model and per-codec ratios (seed-independent inputs)."""
    from repro.cluster.campaign import MultiNodeCampaign
    from repro.core.experiments import Testbed
    from repro.data.registry import get_dataset
    from repro.energy.cpus import get_cpu
    from repro.iolib import get_io_library

    testbed = Testbed(scale="test")
    spec = get_dataset(DATASET)
    campaign = MultiNodeCampaign(
        cpu=get_cpu(CPU),
        pfs=testbed.pfs,
        io_library=get_io_library(LIB),
        payload_nbytes=spec.paper_nbytes // 6,
        complexity=spec.complexity,
        throughput=testbed.throughput,
        sample_interval=max(testbed.sample_interval, 0.02),
    )
    ratios = {c: testbed.roundtrip(DATASET, c, BOUND).ratio for c in MIX if c}
    return campaign, ratios


def scenario(seed: int, index: int, n: int):
    """``n`` tenants: seeded permutations of fixed codec/rank/work mixes."""
    from repro.cluster.scheduler import ClusterSpec, JobSpec

    gap_s, per_node = SHAPES[n]
    rng = np.random.default_rng(sub_seed(seed, index, n))
    codecs = rng.permutation(np.arange(n) % len(MIX))
    ranks = rng.permutation(np.arange(n) % len(RANKS))
    work = rng.permutation(np.linspace(2.0, 10.0, n))
    submit = (np.arange(n) + rng.uniform(0.0, 1.0, n)) * gap_s
    jobs = tuple(
        JobSpec(name=f"t{i}", ranks=RANKS[ranks[i]], codec=MIX[codecs[i]],
                rel_bound=BOUND, submit_s=float(submit[i]), work_s=float(work[i]))
        for i in range(n)
    )
    return ClusterSpec(n_nodes=max(2, n // per_node), jobs=jobs)


def _violations(timeline) -> list[str]:
    """The cluster kind's record invariants, applied to one timeline."""
    import repro.cluster.kind  # noqa: F401 - registers the cluster kind
    from repro.runtime import registry

    tenants = [
        {
            "submit_s": j.submit_s, "start_s": j.start_s, "finish_s": j.finish_s,
            "write_time_s": j.write_time_s,
            "dedicated_write_time_s": j.dedicated_write_time_s,
            "bytes_per_rank": j.out_bytes,
            "compress_energy_j": j.compress_energy_j,
            "write_energy_j": j.write_energy_j,
            "lifecycle_energy_j": j.lifecycle_energy_j,
        }
        for j in timeline.jobs
    ]
    record = {
        "n_jobs": len(timeline.jobs), "tenants": tenants,
        "iterations": timeline.iterations, "makespan_s": timeline.makespan_s,
        **{key: sum(t[key] for t in tenants)
           for key in ("compress_energy_j", "write_energy_j", "lifecycle_energy_j")},
    }
    return registry.get_kind("cluster").invariants([record])


def _op(result, campaign, ratios, seed, index, tracer=None):
    """Solve the 3/30/300-tenant scenarios; returns per-size rows or None."""
    from repro.cluster.scheduler import simulate_cluster

    rows = {"host_s": host_seconds()}
    result.attempted += 1
    for n in TENANTS:
        spec = scenario(seed, index, n)
        job_ratios = {j.name: ratios[j.codec] for j in spec.jobs if j.codec}
        window = tracer.now() if tracer else 0.0
        try:
            t0 = time.perf_counter()
            timeline = simulate_cluster(spec, campaign, job_ratios)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            result.fail(f"op {index} t{n}: {type(exc).__name__}: {exc}")
            return None
        window = (window, tracer.now() if tracer else 0.0)
        problems = _violations(timeline)
        if problems:
            result.fail(*(f"op {index} t{n}: {problem}" for problem in problems))
            return None
        rows[n] = {
            "seconds": seconds, "passes": timeline.iterations, "window": window,
            "queued": sum(j.start_s > j.submit_s for j in timeline.jobs),
            "backfilled": sum(j.backfilled for j in timeline.jobs),
        }
    rows["host_s"] = (rows["host_s"] + host_seconds()) / 2
    return rows


def _layers(tracer, window):
    spans = spans_within(tracer.spans, *window)
    layers = layer_self_times(spans, lambda s: s.name)
    return {
        "iolib.pfs.fair_share_s": layers.get("pfs.fair_share", 0.0),
        "iolib.pfs.flows": sum(s.args["items"] for s in spans
                               if s.name == "pfs.fair_share"),
        "cluster.costs.node_energy_s": layers.get("costs.node_energy", 0.0),
        "cluster.scheduler.self_s": layers.get("solve", 0.0),
        "obs_s": layers.get("obs.trace_timeline", 0.0),
    }


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup_s = setup_seconds("cluster", seed)
    campaign, ratios = setup(seed)
    pairs = paired_ops(
        result, seconds, trace, MIN_OPS,
        lambda index, traced: (_traced_op if traced else _op)(
            result, campaign, ratios, seed, index),
        # Pass counts are exact: tracing must not change them.
        lambda plain, traced: [f"passes.t{n}" for n in TENANTS
                               if plain[n]["passes"] != traced[n]["passes"]],
    )
    plain = [p for p, _ in pairs]
    op_s = [sum(p[n]["seconds"] for n in TENANTS) for p in plain]
    result.report.append(
        f"solve_s = {median(p[300]['seconds'] for p in plain):.4g} s "
        f"(median converged 300-tenant solve over {len(plain)} ops)"
    )
    for n in TENANTS:
        rows = [p[n] for p in plain]
        result.report.append(
            f"t{n}: solve_s median {median(r['seconds'] for r in rows):.4g} s, "
            f"passes {[r['passes'] for r in rows]}, "
            f"queued {[r['queued'] for r in rows]}, "
            f"backfilled {[r['backfilled'] for r in rows]}"
        )
    if not trace:
        result.put_times(setup_s, [(s, nominal(s, p["host_s"])) for s, p in zip(op_s, plain)],
                         reduce=interquartile_mean)
        return result
    first = pairs[0][1] if pairs else None
    for n in TENANTS:
        result.put(f"cluster.passes.t{n}", first[n]["passes"] if first else 0, "count")
        result.put(f"cluster.solve_s.t{n}",
                   median(p[n]["seconds"] for p in plain), "s")
    for key in ("iolib.pfs.fair_share_s", "cluster.costs.node_energy_s",
                "cluster.scheduler.self_s"):
        result.put(key, median(t[300]["layers"][key] for _, t in pairs), "s")
    result.put("iolib.pfs.flows",
               first[300]["layers"]["iolib.pfs.flows"] if first else 0, "count")
    named = [t[300]["layers"]["iolib.pfs.fair_share_s"]
             + t[300]["layers"]["cluster.costs.node_energy_s"] for _, t in pairs]
    result.put("coverage", median(
        x / t[300]["seconds"] for x, (_, t) in zip(named, pairs)), "ratio")
    result.put("trace_overhead", trace_overhead(
        (nominal(sum(p[n]["seconds"] for n in TENANTS), p["host_s"]),
         nominal(sum(t[n]["seconds"] for n in TENANTS), t["host_s"]))
        for p, t in pairs), "ratio")
    result.report.append(
        "gap (scheduler event loop, fixed-point bookkeeping, job pricing, one "
        "virtual span per fixed-point pass) = cluster.scheduler.self_s; the "
        "tracer's Gantt emission (scheduler._trace_timeline, traced solves "
        f"only) = {median(t[300]['layers']['obs_s'] for _, t in pairs):.4g} s, "
        "in no layer"
    )
    return result


def _traced_op(result, campaign, ratios, seed, index):
    """The same op under a tracer, with spans around each solve, every
    fair-share solve, every node-energy integration and the tracer's own
    Gantt emission (so that ``solve`` self time is scheduler work only)."""
    from repro.cluster import costs, scheduler
    from repro.iolib.pfs import PFSModel
    from repro.obs import tracing

    with tracing() as tracer, ExitStack() as stack:
        stack.enter_context(spanned(tracer, scheduler, "simulate_cluster", "solve"))
        stack.enter_context(spanned(tracer, PFSModel, "concurrent_write_times",
                                    "pfs.fair_share", count_arg=1))
        for fn in ("stepped_node_energy", "measure_node_phases"):
            stack.enter_context(spanned(tracer, costs, fn, "costs.node_energy"))
        stack.enter_context(spanned(tracer, scheduler, "_trace_timeline",
                                    "obs.trace_timeline"))
        rows = _op(result, campaign, ratios, seed, index, tracer)
        for n in TENANTS if rows else ():
            rows[n]["layers"] = _layers(tracer, rows[n]["window"])
    return rows
