"""The multi-node compress-and-write campaign (paper Fig. 6 / Fig. 12).

Every rank holds a copy of the payload, compresses it locally (one core per
rank), then all N*R ranks write their compressed output to the shared PFS
concurrently.  The uncompressed baseline skips straight to the write.  The
campaign produces per-node energy split into compression and write
components — Fig. 12's stacked bars.

:class:`MultiNodeCampaign` is the machine model (CPU, PFS, I/O library,
per-rank payload) plus the per-rank cost kernel: compression time,
serialization, and output bytes.  :meth:`MultiNodeCampaign.run` prices one
point as a one-tenant :func:`~repro.cluster.scheduler.simulate_cluster`
solve on exactly the nodes the job needs, so the cluster scheduler is the
one code path that schedules and prices a multi-node write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.scheduler import ClusterSpec, JobSpec, simulate_cluster
from repro.energy.cpus import CPUSpec
from repro.energy.throughput import ThroughputModel
from repro.errors import ConfigurationError
from repro.iolib.base import IOLibrary
from repro.iolib.pfs import PFSModel
from repro.runtime import registry

__all__ = ["CampaignResult", "MultiNodeCampaign"]


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of one campaign run.

    ``n_ranks`` is the number of ranks actually simulated — equal to
    ``total_cores``, with any remainder beyond full ``ranks_per_node`` nodes
    placed on a partial last node.  ``ranks_per_node`` reports the *full*
    node's rank count.
    """

    codec: str | None  # None = uncompressed baseline
    total_cores: int
    nodes: int
    ranks_per_node: int
    compress_energy_j: float
    write_energy_j: float
    compress_time_s: float
    write_time_s: float  # makespan of the write phase
    bytes_per_rank: int
    written_bytes_total: int
    n_ranks: int = 0  # ranks simulated (== total_cores)

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j

    @property
    def total_time_s(self) -> float:
        return self.compress_time_s + self.write_time_s


# Campaign results are not a sweep kind's primary record, but registering
# them lets them encode/decode through the ResultStore like every other
# record (a cached Fig. 12 point round-trips from disk).
registry.register_record(CampaignResult)


class MultiNodeCampaign:
    """Configure once, run per (codec, core-count) point of Fig. 12."""

    def __init__(
        self,
        cpu: CPUSpec,
        pfs: PFSModel,
        io_library: IOLibrary,
        payload_nbytes: int,
        complexity: float = 1.0,
        throughput: ThroughputModel | None = None,
        sample_interval: float = 0.020,
    ):
        if payload_nbytes <= 0:
            raise ConfigurationError("payload_nbytes must be positive")
        self.cpu = cpu
        self.pfs = pfs
        self.io = io_library
        self.payload_nbytes = int(payload_nbytes)
        self.complexity = complexity
        self.throughput = throughput or ThroughputModel()
        self.sample_interval = sample_interval

    def _topology(self, total_cores: int) -> tuple[int, int, int]:
        """(nodes, ranks-per-full-node, remainder ranks on a partial node).

        Nodes fill to ``cpu.cores`` ranks; a request that is not a multiple
        leaves the remainder on a partial last node.  (The seed rounded the
        rank count *up* to ``nodes * rpn``, silently simulating more ranks
        than requested — e.g. 144 for 100 cores on the 48-core plat8160.)
        """
        if total_cores < 1:
            raise ConfigurationError("total_cores must be >= 1")
        rpn = min(total_cores, self.cpu.cores)
        full_nodes, rem = divmod(total_cores, rpn)
        return full_nodes + (1 if rem else 0), rpn, rem

    def write_prelude(
        self,
        codec: str | None,
        rel_bound: float = 1e-3,
        compression_ratio: float = 1.0,
    ) -> tuple[float, float, int]:
        """(compress s, serialize s, bytes per rank) before a write enters the PFS.

        The per-rank CPU-side cost of one output dump: compression time at
        the measured ratio, serialization of the compressed bytes, and the
        size of the flow each rank will push through the fair-share model.
        The cluster scheduler prices every tenant's write through this
        method.
        """
        if codec is None:
            t_comp, out_bytes = 0.0, self.payload_nbytes
        else:
            if compression_ratio <= 0:
                raise ConfigurationError("compression_ratio must be positive")
            t_comp = self.throughput.runtime(
                codec,
                "compress",
                self.payload_nbytes,
                rel_bound,
                self.cpu,
                threads=1,
                complexity=self.complexity,
            )
            out_bytes = max(1, int(round(self.payload_nbytes / compression_ratio)))
        t_serialize = self.io.cost.serialize_seconds(out_bytes, self.cpu.speed)
        return t_comp, t_serialize, out_bytes

    def run(
        self,
        total_cores: int,
        codec: str | None,
        rel_bound: float = 1e-3,
        compression_ratio: float = 1.0,
    ) -> CampaignResult:
        """Simulate one campaign point.

        ``codec=None`` is the uncompressed baseline; otherwise
        ``compression_ratio`` must be the *measured* ratio of that codec on
        this dataset at ``rel_bound`` (the experiment drivers feed the real
        value from the synthetic-data compression).  The point is a
        one-tenant cluster on exactly the nodes it needs: no queue, no
        contention from other jobs.
        """
        nodes, _, _ = self._topology(total_cores)
        spec = ClusterSpec(
            n_nodes=nodes,
            jobs=(JobSpec("solo", total_cores, codec, rel_bound),),
        )
        job = simulate_cluster(spec, self, {"solo": compression_ratio}).jobs[0]
        return CampaignResult(
            codec=codec,
            total_cores=total_cores,
            nodes=job.nodes,
            ranks_per_node=job.ranks_per_node,
            compress_energy_j=job.compress_energy_j,
            write_energy_j=job.write_energy_j,
            compress_time_s=job.t_comp,
            write_time_s=job.write_time_s,
            bytes_per_rank=job.out_bytes,
            written_bytes_total=job.out_bytes * total_cores,
            n_ranks=total_cores,
        )

    def _restart_cost(
        self, codec: str | None, rel_bound: float, out_bytes: int, n_ranks: int
    ) -> float:
        """Seconds for the whole allocation to restart once.

        Every rank fetches its last checkpoint concurrently through the
        fair-share PFS model (reads share the write fabric model — the
        conservative choice), as one class of ``n_ranks`` equal flows, and
        then decompresses it locally.
        """
        cost = self.io.cost
        (finish,) = self.pfs.concurrent_write_times(
            np.array([float(out_bytes)]),
            efficiency=cost.bandwidth_efficiency,
            counts=np.array([n_ranks]),
        )
        fetch_s = float(finish) + cost.open_latency_s
        if codec is None:
            return fetch_s
        return fetch_s + self.throughput.runtime(
            codec,
            "decompress",
            self.payload_nbytes,
            rel_bound,
            self.cpu,
            threads=1,
            complexity=self.complexity,
        )
