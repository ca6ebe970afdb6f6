"""Multi-node simulation: tenants, ranks, the shared PFS and I/O campaigns.

Reproduces the Section IV-E experiment (Fig. 6): N MPI nodes with R ranks
each; every rank compresses its copy of the dataset, then all N*R ranks
write concurrently to the shared PFS, and every node's energy is metered
through the RAPL/PAPI sampling kernels
(:func:`~repro.cluster.costs.measure_node_phases`).
:class:`~repro.cluster.campaign.MultiNodeCampaign` is the driver behind
Fig. 12; each of its points is a one-tenant
:func:`~repro.cluster.scheduler.simulate_cluster` solve.

The names below load on first access: importing the package loads neither
the campaign nor the scheduler (nor, through it, :mod:`repro.workloads`).
The ``cluster`` experiment kind (:mod:`repro.cluster.kind`) loads the first
time the runtime registry is asked for it by name.
"""

from repro import _lazy

_EXPORTS = {
    "repro.cluster.campaign": ("CampaignResult", "MultiNodeCampaign"),
    "repro.cluster.scheduler": (
        "ClusterSpec", "ClusterTimeline", "JobOutcome", "JobSpec", "compression_mixes",
        "format_scenario", "parse_scenario", "scenario_matrix", "simulate_cluster",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
