"""Cluster-layer oracles: the schedule pass as generator processes and the
per-phase node meter.

``scheduler._run_schedule`` (the plain event-heap replay) is checked
against :func:`reference_run_schedule`, and
``costs.measure_node_phases`` (one array pass over every node) against
:func:`reference_measure_node_phases`, and ``costs.drain_phases`` (one
segment per distinct finish time) against :func:`reference_drain_phases`.
"""

from __future__ import annotations

import math

import numpy as np

from reference.events import EventLoop

from repro.energy import EnergyMeter
from repro.energy.measurement import Phase
from repro.errors import ConfigurationError, SimulationError


def reference_run_schedule(
    cluster,
    states,
    drains: dict[str, float],
) -> tuple[dict[str, float], dict[str, float], dict[str, bool]]:
    """The schedule pass as generator processes on the event loop.

    The replay ``scheduler._run_schedule`` is checked against, entry for
    entry: same starts, PFS arrivals and backfill flags on any input.
    """
    loop = EventLoop()
    by_name = {st.spec.name: st for st in states}
    alloc = {name: st.nodes for name, st in by_name.items()}
    state = {"free": cluster.n_nodes, "wake": None, "granted": 0}
    queue: list[str] = []  # job names, FIFO by arrival
    starts: dict[str, float] = {}
    arrivals: dict[str, float] = {}
    backfilled: dict[str, bool] = {}
    grants = {st.spec.name: loop.event() for st in states}

    def notify():
        ev = state["wake"]
        if ev is not None:
            state["wake"] = None
            ev.fire()

    def grant(name: str, backfill: bool):
        state["free"] -= alloc[name]
        state["granted"] += 1
        backfilled[name] = backfill
        # Reservation bookkeeping sees the fixed walltime estimate.
        running[name] = loop.now + by_name[name].est_s
        grants[name].fire()

    running: dict[str, float] = {}  # name -> estimated end, for reservations

    def try_schedule():
        progress = True
        while progress:
            progress = False
            while queue and alloc[queue[0]] <= state["free"]:
                grant(queue.pop(0), backfill=False)
                progress = True
            if not queue:
                return
            head = queue[0]
            # EASY reservation: find the shadow time when the head fits,
            # accumulating releases in estimated-end order.
            avail = state["free"]
            shadow = None
            extra = 0
            for end, name in sorted((running[n], n) for n in running):
                avail += alloc[name]
                if avail >= alloc[head]:
                    shadow = end
                    extra = avail - alloc[head]
                    break
            if shadow is None:
                return  # nothing running frees enough (cannot happen: validated)
            for cand in queue[1:]:
                fits_now = alloc[cand] <= state["free"]
                harmless = (
                    loop.now + by_name[cand].est_s <= shadow + 1e-9
                    or alloc[cand] <= extra
                )
                if fits_now and harmless:
                    queue.remove(cand)
                    grant(cand, backfill=True)
                    progress = True
                    break  # re-derive the reservation with the new state

    def submitter(st: _JobState):
        if st.spec.submit_s > 0:
            yield st.spec.submit_s
        queue.append(st.spec.name)
        notify()

    def job_proc(st: _JobState):
        name = st.spec.name
        yield grants[name]
        starts[name] = loop.now
        if st.pre_s > 0:
            yield st.pre_s
        if st.cpu_s > 0:
            yield st.cpu_s
        arrivals[name] = loop.now  # the flows enter the PFS here
        drain = drains[name]
        if drain > 0:
            yield drain
        state["free"] += alloc[name]
        running.pop(name, None)
        notify()

    def sched_proc():
        while state["granted"] < len(states):
            try_schedule()
            if state["granted"] >= len(states):
                break
            ev = loop.event()
            state["wake"] = ev
            yield ev

    for st in states:
        loop.spawn(submitter(st))
        loop.spawn(job_proc(st))
    loop.spawn(sched_proc())
    loop.run()
    if len(starts) != len(states):  # pragma: no cover - defensive
        raise SimulationError("cluster schedule did not grant every job")
    return starts, arrivals, backfilled


def reference_measure_node_phases(cpu, nodes, *, sample_interval, freq_ghz=None):
    """Joules per label of every node, one ``EnergyMeter.measure`` window
    per phase, summed per label in phase order (each window wraps at the
    RAPL range, so it is only a reference below it).

    A non-finite or negative duration raises ``ConfigurationError``,
    zero-duration phases are dropped, and core counts are clamped to the
    node.
    """
    meter = EnergyMeter(cpu, sample_interval=sample_interval, freq_ghz=freq_ghz)
    out = []
    for phases in nodes:
        by_label: dict[str, float] = {}
        for duration, cores, activity, label in phases:
            if not (math.isfinite(duration) and duration >= 0):
                raise ConfigurationError(
                    f"phase duration must be finite and non-negative, got {duration!r}"
                )
            if duration == 0:
                continue
            report = meter.measure([Phase(duration, min(cores, cpu.cores), activity)])
            by_label[label] = by_label.get(label, 0.0) + report.energy_j
        out.append(by_label)
    return out


def reference_drain_phases(t0, finishes, ranks, transfer_activity):
    """The stepped drain profile walked one rank at a time."""
    phases = []
    prev = t0
    for k, tf in enumerate(np.sort(finishes)):
        seg = float(tf) - prev
        if seg > 1e-9:
            phases.append((seg, ranks - k, transfer_activity, "write"))
            prev = float(tf)
    return phases
