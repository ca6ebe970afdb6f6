"""Multi-node simulation: tenants, ranks, the shared PFS and I/O campaigns.

Reproduces the Section IV-E experiment (Fig. 6): N MPI nodes with R ranks
each; every rank compresses its copy of the dataset, then all N*R ranks
write concurrently to the shared PFS, and every node's energy is metered
through the RAPL/PAPI sampling kernels
(:func:`~repro.cluster.costs.measure_node_phases`).
:class:`~repro.cluster.campaign.MultiNodeCampaign` is the driver behind
Fig. 12; each of its points is a one-tenant
:func:`~repro.cluster.scheduler.simulate_cluster` solve.
"""

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
