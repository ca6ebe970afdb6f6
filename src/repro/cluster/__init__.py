"""Multi-node simulation: discrete events, nodes, ranks, and I/O campaigns.

Reproduces the Section IV-E experiment (Fig. 6): N MPI nodes with R ranks
each; every rank compresses its copy of the dataset, then all N*R ranks
write concurrently to the shared PFS while the PAPI monitor records energy
on every node.  :class:`~repro.cluster.campaign.MultiNodeCampaign` is the
driver behind Fig. 12; each of its points is a one-tenant
:func:`~repro.cluster.scheduler.simulate_cluster` solve.
"""

from repro.cluster.events import EventLoop, Process
from repro.cluster.node import NodeModel
from repro.cluster.campaign import CampaignResult, MultiNodeCampaign
from repro.cluster.scheduler import (
    ClusterSpec,
    ClusterTimeline,
    JobOutcome,
    JobSpec,
    compression_mixes,
    format_scenario,
    parse_scenario,
    scenario_matrix,
    simulate_cluster,
)

# repro.cluster.kind (the `cluster` experiment kind) is deliberately NOT
# imported here: like repro.dataset.kind it registers on import, and the
# CLI / conftest / tools import it explicitly as a plugin.

__all__ = [
    "EventLoop",
    "Process",
    "NodeModel",
    "CampaignResult",
    "MultiNodeCampaign",
    "JobSpec",
    "ClusterSpec",
    "JobOutcome",
    "ClusterTimeline",
    "parse_scenario",
    "format_scenario",
    "scenario_matrix",
    "compression_mixes",
    "simulate_cluster",
]
