"""Shared per-job cost kernel for cluster simulation.

Every tenant of :mod:`repro.cluster.scheduler` — including the one-tenant
solve behind :meth:`~repro.cluster.campaign.MultiNodeCampaign.run` — is
priced the same way: per-rank compress + serialize work, a fair-share PFS
drain, and per-node energy metered phase by phase.  This module holds the
one implementation of that accounting — phase construction from completion
times, per-node metering, and the full/partial-node topology sum.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeModel
from repro.energy.cpus import CPUSpec

__all__ = [
    "drain_phases",
    "measure_node_phases",
    "stepped_node_energy",
    "accumulate_nodes",
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
    ends, done = np.unique(np.sort(finishes), return_index=True)
    phases: list[PhaseTuple] = []
    prev = t0
    for tf, k in zip(ends.tolist(), done.tolist()):
        seg = tf - prev
        if seg > 1e-9:
            phases.append((seg, ranks - k, transfer_activity, "write"))
            prev = tf
    return phases


def measure_node_phases(
    cpu: CPUSpec,
    phases: list[PhaseTuple],
    *,
    sample_interval: float,
    freq_ghz: float | None = None,
) -> dict[str, float]:
    """Meter one node through ``phases``, returning joules per label.

    Each phase is measured on its own RAPL window (the
    :class:`~repro.cluster.node.NodeModel` convention: wrap-safe, and the
    per-label split stays exact).  Zero-duration phases are skipped by the
    node model itself.
    """
    node = NodeModel(cpu, sample_interval=sample_interval, freq_ghz=freq_ghz)
    for duration_s, cores, activity, label in phases:
        node.add_phase(duration_s, cores, activity, label)
    return dict(node.measure().by_label)


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
    """(compress J, write J) of one node running the plain write campaign.

    The node compresses on all ranks, serializes, then drains its flows
    through the stepped profile of :func:`drain_phases`.
    """
    phases: list[PhaseTuple] = [
        (t_comp, ranks, 1.0, "compress"),
        (t_serialize, ranks, 1.0, "write"),
    ]
    phases.extend(drain_phases(t0, finishes, ranks, transfer_activity))
    by_label = measure_node_phases(
        cpu, phases, sample_interval=sample_interval, freq_ghz=freq_ghz
    )
    return by_label.get("compress", 0.0), by_label.get("write", 0.0)


def accumulate_nodes(nodes, rpn, rem, node_energy) -> tuple[float, float]:
    """Sum (compress J, write J) over the allocation topology.

    ``node_energy(ranks)`` measures one node carrying ``ranks`` ranks.
    Full nodes are identical, so one is measured and scaled — the paper
    sums PAPI over all nodes; the partial last node (if any) carries
    fewer ranks/flows and is accounted separately.
    """
    full_nodes = nodes - (1 if rem else 0)
    compress_j = 0.0
    write_j = 0.0
    if full_nodes:
        c, w = node_energy(rpn)
        compress_j += c * full_nodes
        write_j += w * full_nodes
    if rem:
        c, w = node_energy(rem)
        compress_j += c
        write_j += w
    return compress_j, write_j
