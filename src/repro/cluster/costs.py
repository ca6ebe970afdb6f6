"""Shared per-job cost kernel for cluster simulation.

Every tenant of :mod:`repro.cluster.scheduler` — including the one-tenant
solve behind :meth:`~repro.cluster.campaign.MultiNodeCampaign.run` — is
priced the same way: per-rank compress + serialize work, a fair-share PFS
drain, and per-node energy metered phase by phase.  This module holds the
one implementation of that accounting — phase construction from completion
times, the full/partial-node topology, and the metering of every node of a
solve in one batch (:func:`measure_node_phases`).
"""

from __future__ import annotations

import numpy as np

from repro.energy.cpus import CPUSpec
from repro.energy.papi import check_sample_interval, tick_splits
from repro.energy.power import PowerModel
from repro.energy.rapl import phase_energies

__all__ = [
    "drain_phases",
    "write_phases",
    "measure_node_phases",
    "stepped_node_energy",
    "node_classes",
]

#: One workload segment handed to :func:`measure_node_phases`:
#: ``(duration_s, active_cores, activity, label)``.
PhaseTuple = tuple[float, int, float, str]


def drain_phases(
    t0: float,
    finishes: np.ndarray,
    ranks: int,
    transfer_activity: float,
) -> list[PhaseTuple]:
    """Stepped transfer-drain segments for one node's flows.

    While ``k`` of the node's ranks are still draining their transfers the
    node sustains I/O activity proportional to ``k`` (serialization /
    progress threads), decaying to idle as flows finish.  ``finishes`` are
    the absolute completion times of this node's flows; ``t0`` is when the
    transfers entered the PFS.  Ranks finishing together step the profile
    once, so only the distinct finish times are walked, each with the
    number of ranks done before it.
    """
    ordered = np.sort(finishes)
    # The first rank of each run of equal finish times, and how many
    # ranks finished before it.
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    done = np.flatnonzero(first)
    phases: list[PhaseTuple] = []
    prev = t0
    for tf, k in zip(ordered[done].tolist(), done.tolist()):
        seg = tf - prev
        if seg > 1e-9:
            phases.append((seg, ranks - k, transfer_activity, "write"))
            prev = tf
    return phases


def write_phases(
    *,
    ranks: int,
    t_comp: float,
    t_serialize: float,
    t0: float,
    finish: float,
    transfer_activity: float,
) -> list[PhaseTuple]:
    """One node of the plain write campaign: it compresses on all ranks,
    serializes, then drains its flows, which entered the PFS at ``t0`` as
    one flow class and all complete at ``finish`` — the single segment
    :func:`drain_phases` yields for equal finish times."""
    phases: list[PhaseTuple] = [
        (t_comp, ranks, 1.0, "compress"),
        (t_serialize, ranks, 1.0, "write"),
    ]
    if finish - t0 > 1e-9:
        phases.append((finish - t0, ranks, transfer_activity, "write"))
    return phases


def measure_node_phases(
    cpu: CPUSpec,
    nodes: list[list[PhaseTuple]],
    *,
    sample_interval: float,
    freq_ghz: float | None = None,
) -> list[dict[str, float]]:
    """Meter every node of ``nodes`` through its phases: joules per label.

    Each phase is measured on its own RAPL window, so the per-label split
    stays exact and no wrap is lost, and all phases of all nodes go through
    one :func:`~repro.energy.papi.tick_splits` walk and one
    :func:`~repro.energy.rapl.phase_energies` pass.  A bad duration raises
    ``ConfigurationError``, zero-duration phases are dropped, and core
    counts are clamped to the node.
    """
    check_sample_interval(sample_interval)
    owner = [n for n, phases in enumerate(nodes) for _ in phases]
    flat = [ph for phases in nodes for ph in phases]
    durations = np.array([ph[0] for ph in flat], dtype=np.float64)
    # NaN, infinite and negative durations stay in, for tick_splits to reject.
    keep = np.flatnonzero(durations != 0).tolist()
    ticks, tails = tick_splits(durations[keep], sample_interval)
    joules = phase_energies(
        PowerModel(cpu, freq_ghz=freq_ghz),
        sample_interval,
        [min(flat[i][1], cpu.cores) for i in keep],
        [flat[i][2] for i in keep],
        ticks,
        tails,
    )
    out: list[dict[str, float]] = [{} for _ in nodes]
    for i, j in zip(keep, joules.tolist()):
        by_label = out[owner[i]]
        label = flat[i][3]
        by_label[label] = by_label.get(label, 0.0) + j
    return out


def stepped_node_energy(
    cpu: CPUSpec,
    *,
    ranks: int,
    t_comp: float,
    t_serialize: float,
    t0: float,
    finishes: np.ndarray,
    transfer_activity: float,
    sample_interval: float,
    freq_ghz: float | None = None,
) -> tuple[float, float]:
    """(compress J, write J) of one node running the plain write campaign,
    its flows finishing at ``finishes`` (the stepped :func:`drain_phases`
    profile)."""
    phases: list[PhaseTuple] = [
        (t_comp, ranks, 1.0, "compress"),
        (t_serialize, ranks, 1.0, "write"),
        *drain_phases(t0, finishes, ranks, transfer_activity),
    ]
    (by_label,) = measure_node_phases(
        cpu, [phases], sample_interval=sample_interval, freq_ghz=freq_ghz
    )
    return by_label.get("compress", 0.0), by_label.get("write", 0.0)


def node_classes(nodes: int, rpn: int, rem: int) -> list[tuple[int, int]]:
    """``(ranks, node count)`` of each distinct node of an allocation.

    Full nodes are identical, so one is metered and scaled — the paper sums
    PAPI over all nodes; the partial last node (if any) carries fewer
    ranks/flows and is accounted separately.
    """
    full_nodes = nodes - (1 if rem else 0)
    classes = [(rpn, full_nodes)] if full_nodes else []
    if rem:
        classes.append((rem, 1))
    return classes
