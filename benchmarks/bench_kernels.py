"""Wall-clock kernels: real pytest-benchmark timings of our reimplementations.

Unlike the figure benches (virtual-testbed energies), these measure the
actual Python codec kernels so performance regressions in this repository
are visible.  The per-kernel cases are driven by the same
:mod:`repro.runtime.benchmark` specs that back ``repro bench kernels`` and
``BENCH_kernels.json``, so pytest-benchmark and the CLI harness always time
the same code paths on the same representative quantizer-code streams.
Sizes are small; the point is relative movement over time.
"""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.data import generate
from repro.runtime.benchmark import KERNELS, SYNTHETIC_DATASET, kernel_inputs

CODECS = ("sz2", "sz3", "qoz", "zfp", "szx")


@pytest.mark.parametrize("codec", CODECS)
def test_kernel_compress_nyx(benchmark, codec):
    data = np.array(generate("nyx", "test"))
    comp = get_compressor(codec)
    buf = benchmark(comp.compress, data, 1e-3)
    assert buf.ratio > 1.0


@pytest.mark.parametrize("codec", CODECS)
def test_kernel_decompress_nyx(benchmark, codec):
    data = np.array(generate("nyx", "test"))
    comp = get_compressor(codec)
    buf = comp.compress(data, 1e-3)
    rec = benchmark(comp.decompress, buf)
    assert rec.shape == data.shape


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
@pytest.mark.parametrize("dataset", ("nyx", SYNTHETIC_DATASET))
def test_kernel_spec(benchmark, spec, dataset):
    """Every harness kernel on a representative quantizer-code stream."""
    inputs = kernel_inputs(dataset, target_symbols=1 << 17, scale="test")
    prepared = spec.prepare(inputs)
    if prepared is None:
        pytest.skip(f"{spec.name} does not apply to {dataset}")
    fn, n_symbols, _ = prepared
    result = benchmark(fn)
    assert result is not None
    assert n_symbols > 0


def test_kernel_pfs_solver(benchmark):
    from repro.iolib.pfs import fair_share_schedule

    r = np.random.default_rng(1)
    arrivals = np.sort(r.uniform(0, 5, 512))
    sizes = r.uniform(1e7, 1e9, 512)
    finish = benchmark(fair_share_schedule, arrivals, sizes, 1000.0, 4000.0)
    assert np.all(np.isfinite(finish))


@pytest.mark.parametrize("ranks", (56, 112, 224))
def test_kernel_pfs_solver_tenants(benchmark, ranks):
    """The input the cluster solve serves: 300 tenant classes of ``ranks``
    identical flows each (one size, one arrival per tenant), equal bit for
    bit to the per-flow solve of the expanded arrays."""
    from repro.iolib.pfs import fair_share_schedule

    r = np.random.default_rng(1)
    arrivals = np.sort(r.uniform(0, 600, 300))
    sizes = r.uniform(1e7, 1e9, 300)
    counts = np.full(300, ranks)
    finish = benchmark(fair_share_schedule, arrivals, sizes, 1000.0, 4000.0, counts)
    assert np.all(finish >= arrivals)
    per_flow = fair_share_schedule(
        np.repeat(arrivals, ranks), np.repeat(sizes, ranks), 1000.0, 4000.0
    )
    assert np.repeat(finish, ranks).tobytes() == per_flow.tobytes()


def _seeded_300_tenant_solve():
    """A seeded 300-tenant cluster on 150 nodes, its campaign, its ratios
    and its converged timeline."""
    from repro.cluster.campaign import MultiNodeCampaign
    from repro.cluster.scheduler import ClusterSpec, JobSpec, simulate_cluster
    from repro.energy import get_cpu
    from repro.iolib import PFSModel, get_io_library

    campaign = MultiNodeCampaign(
        cpu=get_cpu("max9480"),
        pfs=PFSModel(),
        io_library=get_io_library("hdf5"),
        payload_nbytes=90 * 10**6,
        complexity=0.48,
    )
    ratios = {"szx": 7.3, "sz3": 20.0, "zfp": 5.0, None: 1.0}
    codecs = tuple(ratios)
    r = np.random.default_rng(1)
    jobs = tuple(
        JobSpec(
            name=f"t{i}",
            ranks=int(r.choice((56, 112, 224))),
            codec=codecs[i % len(codecs)],
            submit_s=float(2.0 * (i + r.uniform())),
            work_s=float(r.uniform(2.0, 10.0)),
        )
        for i in range(300)
    )
    spec = ClusterSpec(n_nodes=150, jobs=jobs)
    job_ratios = {j.name: ratios[j.codec] for j in jobs if j.codec}
    return campaign, spec, job_ratios, simulate_cluster(spec, campaign, job_ratios)


def test_kernel_schedule_replay(benchmark):
    """One FIFO + EASY-backfill schedule pass of a seeded 300-tenant solve,
    on the drains it converged to: the pass reproduces the timeline."""
    from repro.cluster.scheduler import _prepare_jobs, _run_schedule

    campaign, spec, ratios, timeline = _seeded_300_tenant_solve()
    states = _prepare_jobs(spec, campaign, ratios)
    drains = {j.spec.name: j.finish_s - j.t0 for j in timeline.jobs}
    starts, arrivals, _ = benchmark(_run_schedule, spec, states, drains)
    assert starts == {j.spec.name: j.start_s for j in timeline.jobs}
    assert arrivals == {j.spec.name: j.t0 for j in timeline.jobs}


def test_kernel_node_energy(benchmark):
    """Node-energy metering of every tenant of one seeded 300-tenant solve,
    in one ``costs.measure_node_phases`` batch as the cluster solve meters
    them."""
    from repro.cluster import costs

    campaign, _, _, timeline = _seeded_300_tenant_solve()
    transfer_activity = campaign.io.cost.transfer_activity

    def meter_tenants():
        batch = []
        for job in timeline.jobs:
            # Every rank of a tenant finishes its flow at the job's finish.
            for ranks, _ in costs.node_classes(job.nodes, job.ranks_per_node, job.rem):
                batch.append(
                    costs.write_phases(
                        ranks=ranks,
                        t_comp=job.t_comp,
                        t_serialize=job.t_serialize,
                        t0=job.t0,
                        finish=job.finish_s,
                        transfer_activity=transfer_activity,
                    )
                )
        metered = iter(
            costs.measure_node_phases(
                campaign.cpu, batch, sample_interval=campaign.sample_interval
            )
        )
        out = []
        for job in timeline.jobs:
            compress_j = write_j = 0.0
            for _, count in costs.node_classes(job.nodes, job.ranks_per_node, job.rem):
                by_label = next(metered)
                compress_j += by_label.get("compress", 0.0) * count
                write_j += by_label.get("write", 0.0) * count
            out.append((compress_j, write_j))
        return out

    joules = benchmark(meter_tenants)
    assert joules == [(j.compress_energy_j, j.write_energy_j) for j in timeline.jobs]
