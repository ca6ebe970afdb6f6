"""The ``cluster`` experiment kind: multi-tenant scenarios as a registry plugin.

One grid point = one (dataset, scenario, CPU, I/O library) cell: a whole
multi-tenant cluster simulation — FIFO+backfill schedule, per-tenant
checkpoint/failure lifecycles, and one shared-PFS fair-share solve for
every concurrent write (:mod:`repro.cluster.scheduler`).  Registering
through :func:`repro.runtime.registry.register` buys the full runtime:
``repro sweep --kind cluster``, engine memoization with content-addressed
store keys, the conformance battery, wire-record checks from the type
hints of :class:`ClusterResult` (the nested :class:`TenantResult` records
included: the store reaches them through ``ClusterResult.tenants``), and
the CLI table renderer.

Grid identity note: the scenario string is canonicalised by the spec
validator (:func:`repro.cluster.scheduler.format_scenario`), so two specs
describing the same scenario — reordered attributes, explicit defaults —
share one store key, while any semantic difference (a codec, a submit
time, a failure seed) changes it.

The registry imports this module by name (like :mod:`repro.core.kind` and
:mod:`repro.dataset.kind`), and so registers the kind, the first time a
lookup asks for ``cluster`` or for an op or record no imported kind
declares; ``repro.cluster`` does not pull it in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.runtime import registry

__all__ = ["TenantResult", "ClusterResult", "CLUSTER_KIND"]


@dataclass(frozen=True)
class TenantResult:
    """One tenant job's schedule, write, lifecycle, and energy outcome."""

    name: str
    ranks: int
    nodes: int
    codec: str | None  # None = uncompressed
    rel_bound: float
    ratio: float  # measured compression ratio (1.0 when uncompressed)
    submit_s: float
    start_s: float
    backfilled: bool
    pre_s: float  # compute/lifecycle seconds before the output dump
    n_failures: int
    n_checkpoints: int
    compress_time_s: float
    write_time_s: float  # serialize + contended drain (campaign convention)
    dedicated_write_time_s: float  # the same write alone on the machine
    finish_s: float  # absolute end of this tenant's write
    bytes_per_rank: int
    compress_energy_j: float
    write_energy_j: float
    lifecycle_energy_j: float

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.submit_s

    @property
    def stretch(self) -> float:
        """Contended over dedicated write time; 1.0 means no contention."""
        if self.dedicated_write_time_s <= 0:
            return 1.0
        return self.write_time_s / self.dedicated_write_time_s

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j + self.lifecycle_energy_j


@dataclass(frozen=True)
class ClusterResult:
    """One converged multi-tenant cluster simulation."""

    dataset: str
    cpu: str
    io_library: str
    scenario: str  # canonical scenario string (the store-key identity)
    n_nodes: int
    n_jobs: int
    makespan_s: float
    compress_energy_j: float  # machine-wide sums over the tenants
    write_energy_j: float
    lifecycle_energy_j: float
    iterations: int  # fixed-point passes until the schedule settled
    tenants: tuple[TenantResult, ...]

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j + self.lifecycle_energy_j

    @property
    def max_stretch(self) -> float:
        return max(t.stretch for t in self.tenants)


def _expand_cluster(spec) -> list:
    from repro.runtime.spec import GridPoint

    return [
        GridPoint.make(
            "cluster_point",
            dataset=ds,
            scenario=spec.scenario,
            io_library=lib,
            cpu_name=cpu,
        )
        for cpu in spec.cpus
        for lib in spec.io_libraries
        for ds in spec.datasets
    ]


def _validate_cluster(spec) -> None:
    from repro.cluster.scheduler import format_scenario, parse_scenario

    if not spec.scenario:
        raise ConfigurationError(
            "the cluster kind needs --scenario, e.g. "
            "'nodes=8; a=ranks:96,codec:szx; b=ranks:96,codec:none' "
            "(see docs/user-guide/cluster.md for the grammar)"
        )
    # Parse eagerly (bad scenarios fail at spec time, not in a worker) and
    # canonicalise so equivalent spellings share one grid identity.
    object.__setattr__(spec, "scenario", format_scenario(parse_scenario(spec.scenario)))


def _evaluate_cluster_point(
    testbed,
    dataset: str,
    scenario: str,
    io_library: str,
    cpu_name: str,
) -> "ClusterResult":
    """Simulate one scenario on one machine configuration.

    The campaign comes from the testbed's Fig. 12 builder, so a
    single-tenant scenario prices exactly like the matching
    :meth:`~repro.core.experiments.Testbed.run_multinode` point.
    """
    from repro.cluster.scheduler import parse_scenario, simulate_cluster

    campaign = testbed._campaign(dataset, cpu_name, io_library)
    cluster = parse_scenario(scenario)
    ratios = {
        job.name: testbed.roundtrip(dataset, job.codec, job.rel_bound).ratio
        for job in cluster.jobs
        if job.codec is not None
    }
    timeline = simulate_cluster(cluster, campaign, ratios)

    tenants = tuple(
        TenantResult(
            name=j.spec.name,
            ranks=j.spec.ranks,
            nodes=j.nodes,
            codec=j.spec.codec,
            rel_bound=j.spec.rel_bound,
            ratio=ratios.get(j.spec.name, 1.0),
            submit_s=j.submit_s,
            start_s=j.start_s,
            backfilled=j.backfilled,
            pre_s=j.pre_s,
            n_failures=j.lifecycle.n_failures if j.lifecycle else 0,
            n_checkpoints=j.lifecycle.n_checkpoints if j.lifecycle else 0,
            compress_time_s=j.t_comp,
            write_time_s=j.write_time_s,
            dedicated_write_time_s=j.dedicated_write_time_s,
            finish_s=j.finish_s,
            bytes_per_rank=j.out_bytes,
            compress_energy_j=j.compress_energy_j,
            write_energy_j=j.write_energy_j,
            lifecycle_energy_j=j.lifecycle_energy_j,
        )
        for j in timeline.jobs
    )
    return ClusterResult(
        dataset=dataset,
        cpu=cpu_name,
        io_library=io_library,
        scenario=scenario,
        n_nodes=cluster.n_nodes,
        n_jobs=len(tenants),
        makespan_s=timeline.makespan_s,
        compress_energy_j=sum(t.compress_energy_j for t in tenants),
        write_energy_j=sum(t.write_energy_j for t in tenants),
        lifecycle_energy_j=sum(t.lifecycle_energy_j for t in tenants),
        iterations=timeline.iterations,
        tenants=tenants,
    )


def _tenant_table(result) -> str:
    """Per-tenant schedule/write/energy detail of one ClusterResult."""
    from repro.core.report import format_table

    rows = [
        [
            t.name,
            str(t.ranks),
            str(t.nodes),
            t.codec or "none",
            f"{t.submit_s:g}",
            f"{t.start_s:.2f}",
            "yes" if t.backfilled else "-",
            f"{t.pre_s:.1f}",
            f"{t.write_time_s:.2f}",
            f"{t.stretch:.2f}",
            str(t.n_failures),
            f"{t.total_energy_j:.1f}",
        ]
        for t in result.tenants
    ]
    return format_table(
        ["job", "ranks", "nodes", "codec", "submit", "start", "bf",
         "pre [s]", "write [s]", "stretch", "fails", "E [J]"],
        rows,
        title=f"tenants of '{result.scenario}' "
        f"(makespan {result.makespan_s:.2f} s, "
        f"{result.iterations} fixed-point pass(es))",
    )


def _table_cluster(records) -> str:
    """One summary row per scenario, then each scenario's tenant table."""
    from repro.core.report import format_table

    rows = [
        [
            r.dataset,
            r.cpu,
            str(r.n_nodes),
            str(r.n_jobs),
            "+".join(t.codec or "none" for t in r.tenants),
            f"{r.makespan_s:.2f}",
            f"{r.max_stretch:.2f}",
            f"{r.total_energy_j:.1f}",
        ]
        for r in records
    ]
    summary = format_table(
        ["dataset", "cpu", "nodes", "jobs", "mix", "makespan [s]",
         "stretch", "E [J]"],
        rows,
        title="cluster scenarios (shared-PFS multi-tenant)",
    )
    return "\n".join([summary, *map(_tenant_table, records)])


def _invariants_cluster(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        tenants = rec["tenants"]
        if rec["n_jobs"] != len(tenants):
            errors.append(f"{where}: n_jobs != len(tenants)")
        if rec["iterations"] < 1:
            errors.append(f"{where}: iterations must be >= 1")
        for key in ("compress_energy_j", "write_energy_j", "lifecycle_energy_j"):
            if rec[key] < 0:
                errors.append(f"{where}: negative {key}")
        for j, t in enumerate(tenants):
            tw = f"{where}.tenants[{j}]"
            if t["start_s"] < t["submit_s"]:
                errors.append(f"{tw}: started before submission")
            if rec["makespan_s"] < t["finish_s"] - 1e-9:
                errors.append(f"{tw}: finishes after the cluster makespan")
            # Contention can only stretch a write, never shrink it.
            if t["write_time_s"] < t["dedicated_write_time_s"] - 1e-9:
                errors.append(f"{tw}: contended write faster than dedicated")
            if t["bytes_per_rank"] < 1:
                errors.append(f"{tw}: bytes_per_rank must be >= 1")
            if min(t["compress_energy_j"], t["write_energy_j"],
                   t["lifecycle_energy_j"]) < 0:
                errors.append(f"{tw}: negative energy")
    return errors


CLUSTER_KIND = registry.register(
    registry.ExperimentKind(
        name="cluster",
        help="multi-tenant cluster scenarios: FIFO+backfill schedule, "
        "shared-PFS write contention, per-tenant lifecycles",
        record=ClusterResult,
        expand=_expand_cluster,
        ops=("cluster_point",),
        spec_fields=("datasets", "cpus", "io_libraries", "scenario"),
        validate=_validate_cluster,
        evaluate={"cluster_point": _evaluate_cluster_point},
        table=_table_cluster,
        invariants=_invariants_cluster,
        conformance=dict(
            datasets=("cesm",),
            io_libraries=("hdf5",),
            cpus=("max9480",),
            scenario="nodes=4; a=ranks:8,codec:szx; "
            "b=ranks:8,codec:none,submit:1,work:30,mttf:7200",
        ),
    )
)
