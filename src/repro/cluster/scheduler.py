"""Multi-tenant cluster simulation: FIFO+backfill scheduling over a shared PFS.

The campaign layer prices one job on a dedicated allocation; this module
scales it to a machine: a declarative :class:`ClusterSpec` describes the
cluster (node count) and its tenant :class:`JobSpec` s (the model is
proto2testbed's ``testbed.json`` — one declarative document drives the whole
experiment topology), a FIFO + EASY-backfill scheduler replays the
allocation deterministically on a plain event heap, and every tenant's
output dump enters **one** cluster-wide
:func:`~repro.iolib.pfs.fair_share_schedule` solve, so concurrent writers
contend for the same OST aggregate the paper's Fig. 12 saturates.

Each job's life: wait in the queue for its node allocation, compute (with a
per-tenant checkpoint/failure lifecycle from
:mod:`repro.workloads.lifecycle` when an MTTF is configured), compress and
serialize the output on every rank (priced by the campaign's per-rank cost
kernel, :meth:`~repro.cluster.campaign.MultiNodeCampaign.write_prelude`),
then push one flow per rank into the shared PFS — one flow class per
tenant, whose ranks all finish together — and hold the nodes until the
fair-share drain completes.

Because job start times depend on write durations (nodes free when drains
end) while write durations depend on which jobs overlap (the global
fair-share solve), the simulation runs a fixed-point iteration: write
durations seed from dedicated-run estimates, each pass replays the full
schedule and re-solves the global PFS model with the observed arrival
times, and the loop stops when the schedule reproduces itself — for a
single tenant that happens on the second pass, which keeps the first
pass's solve since its input is the same.  A one-tenant solve is how
:meth:`MultiNodeCampaign.run` prices every Fig. 12 point.

Scenario matrices are generated SimBricks-style — nested loops over the
axes you want crossed (:func:`scenario_matrix`, :func:`compression_mixes`)
— and serialised to/from a compact scenario string (the grammar is
documented in ``docs/user-guide/cluster.md``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster import costs
from repro.energy.measurement import Interval
from repro.errors import ConfigurationError, SimulationError
from repro.obs.trace import active_tracer
from repro.workloads.checkpoint import CheckpointSpec, resolve_interval
from repro.workloads.failures import FailureModel
from repro.workloads.lifecycle import LifecycleStats, run_lifecycle, trace_intervals

if TYPE_CHECKING:
    from repro.cluster.campaign import MultiNodeCampaign

__all__ = [
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

#: Fixed-point iteration cap; real scenarios settle in a handful of passes.
MAX_FIXED_POINT_ITERATIONS = 32

_NAME_FORBIDDEN = set(";,=: \t")


@dataclass(frozen=True)
class JobSpec:
    """One tenant job: allocation size, compression choice, and lifecycle.

    ``ranks`` is the total core count (the campaign's ``total_cores``);
    node demand follows from the machine's cores-per-node at simulation
    time.  ``work_s > 0`` adds a compute phase before the output dump;
    a finite ``mttf_s`` (per node of this job's allocation) runs that
    phase as a checkpoint/failure lifecycle with the given interval
    policy, downtime, and failure seed.
    """

    name: str
    ranks: int
    codec: str | None = None
    rel_bound: float = 1e-3
    submit_s: float = 0.0
    work_s: float = 0.0
    mttf_s: float = math.inf
    interval: str | float = "daly"
    downtime_s: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if not self.name or _NAME_FORBIDDEN & set(self.name):
            raise ConfigurationError(
                f"job name {self.name!r} must be non-empty and free of "
                "';,=:' and whitespace (it keys the scenario grammar)"
            )
        object.__setattr__(self, "ranks", int(self.ranks))
        if self.ranks < 1:
            raise ConfigurationError(
                f"job {self.name!r} requests {self.ranks} ranks: a job needs "
                "at least one rank (zero-node jobs are rejected)"
            )
        object.__setattr__(self, "rel_bound", float(self.rel_bound))
        object.__setattr__(self, "submit_s", float(self.submit_s))
        object.__setattr__(self, "work_s", float(self.work_s))
        object.__setattr__(self, "mttf_s", float(self.mttf_s))
        object.__setattr__(self, "downtime_s", float(self.downtime_s))
        object.__setattr__(self, "seed", int(self.seed))
        if self.codec is not None and not self.codec:
            object.__setattr__(self, "codec", None)
        # The schedule replay adds these as delays and the cost model prices
        # them: a NaN or infinite value would order the event heap wrongly
        # or reach the PFS solver.  (An infinite MTTF is the no-failure
        # default.)
        for field in ("rel_bound", "submit_s", "work_s", "downtime_s"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"job {self.name!r}: {field} must be finite, got {value!r}"
                )
        if self.rel_bound <= 0:
            raise ConfigurationError(f"job {self.name!r}: rel_bound must be positive")
        if self.submit_s < 0:
            raise ConfigurationError(f"job {self.name!r}: submit_s must be >= 0")
        if self.work_s < 0:
            raise ConfigurationError(f"job {self.name!r}: work_s must be >= 0")
        if not self.mttf_s > 0:
            raise ConfigurationError(f"job {self.name!r}: mttf_s must be positive")
        if self.downtime_s < 0:
            raise ConfigurationError(f"job {self.name!r}: downtime_s must be >= 0")
        if not isinstance(self.interval, str):
            object.__setattr__(self, "interval", float(self.interval))


@dataclass(frozen=True)
class ClusterSpec:
    """A machine (node count) plus the tenant jobs submitted to it."""

    n_nodes: int
    jobs: tuple[JobSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.n_nodes < 1:
            raise ConfigurationError("cluster needs at least one node")
        if not self.jobs:
            raise ConfigurationError("cluster scenario needs at least one job")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate job names in scenario: {dupes}")


# -- scenario string grammar --------------------------------------------------
#
#   scenario := clause (";" clause)*
#   clause   := "nodes=" INT | NAME "=" attr ("," attr)*
#   attr     := KEY ":" VALUE
#
# Job attribute keys: ranks (required), codec, bound, submit, work, mttf,
# interval, downtime, seed.  `codec:none` (or omitting it) is the
# uncompressed baseline.  Attribute values equal to their defaults are
# dropped by `format_scenario`, so the canonical string — which becomes part
# of the content-addressed store key — is minimal and stable.

_JOB_KEYS = frozenset(
    ("ranks", "codec", "bound", "submit", "work", "mttf", "interval", "downtime", "seed")
)


def _g(value: float) -> str:
    return format(float(value), "g")


def parse_scenario(text: str) -> ClusterSpec:
    """Parse a scenario string into a :class:`ClusterSpec` (strictly)."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(
            "empty cluster scenario: expected e.g. "
            "'nodes=4; a=ranks:96,codec:szx; b=ranks:96,codec:none'"
        )
    n_nodes: int | None = None
    jobs: list[JobSpec] = []
    for clause in (c.strip() for c in text.split(";")):
        if not clause:
            continue
        key, sep, rest = clause.partition("=")
        key, rest = key.strip(), rest.strip()
        if not sep or not key or not rest:
            raise ConfigurationError(f"malformed scenario clause {clause!r}")
        if key == "nodes":
            if n_nodes is not None:
                raise ConfigurationError("duplicate 'nodes=' clause in scenario")
            try:
                n_nodes = int(rest)
            except ValueError:
                raise ConfigurationError(f"bad node count {rest!r}") from None
            continue
        attrs: dict[str, str] = {}
        for part in rest.split(","):
            akey, asep, aval = part.partition(":")
            akey, aval = akey.strip(), aval.strip()
            if not asep or not akey or not aval:
                raise ConfigurationError(
                    f"malformed attribute {part!r} in job clause {clause!r}"
                )
            if akey not in _JOB_KEYS:
                raise ConfigurationError(
                    f"unknown job attribute {akey!r} in {clause!r}; "
                    f"known: {sorted(_JOB_KEYS)}"
                )
            if akey in attrs:
                raise ConfigurationError(f"duplicate attribute {akey!r} in {clause!r}")
            attrs[akey] = aval
        if "ranks" not in attrs:
            raise ConfigurationError(f"job clause {clause!r} needs 'ranks:N'")
        codec = attrs.get("codec", "none")
        interval: str | float = attrs.get("interval", "daly")
        if not isinstance(interval, float):
            try:
                interval = float(interval)
            except ValueError:
                pass  # a policy name ("daly"/"young")
        try:
            job = JobSpec(
                name=key,
                ranks=int(attrs["ranks"]),
                codec=None if codec.lower() in ("none", "-") else codec,
                rel_bound=float(attrs.get("bound", 1e-3)),
                submit_s=float(attrs.get("submit", 0.0)),
                work_s=float(attrs.get("work", 0.0)),
                mttf_s=float(attrs.get("mttf", "inf")),
                interval=interval,
                downtime_s=float(attrs.get("downtime", 60.0)),
                seed=int(attrs.get("seed", 0)),
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad value in job clause {clause!r}: {exc}") from None
        jobs.append(job)
    if n_nodes is None:
        raise ConfigurationError("scenario needs a 'nodes=N' clause")
    if not jobs:
        raise ConfigurationError("scenario needs at least one job clause")
    return ClusterSpec(n_nodes=n_nodes, jobs=tuple(jobs))


def format_scenario(spec: ClusterSpec) -> str:
    """The canonical scenario string of ``spec`` (inverse of parsing).

    Defaults are omitted and attributes emitted in a fixed order, so any
    two strings describing the same scenario canonicalise identically —
    the canonical form is what keys the content-addressed result store.
    """
    clauses = [f"nodes={spec.n_nodes}"]
    for j in spec.jobs:
        attrs = [f"ranks:{j.ranks}", f"codec:{j.codec if j.codec else 'none'}"]
        if j.codec is not None and j.rel_bound != 1e-3:
            attrs.append(f"bound:{_g(j.rel_bound)}")
        if j.submit_s != 0.0:
            attrs.append(f"submit:{_g(j.submit_s)}")
        if j.work_s != 0.0:
            attrs.append(f"work:{_g(j.work_s)}")
        if not math.isinf(j.mttf_s):
            attrs.append(f"mttf:{_g(j.mttf_s)}")
        if j.interval != "daly":
            iv = j.interval if isinstance(j.interval, str) else _g(j.interval)
            attrs.append(f"interval:{iv}")
        if j.downtime_s != 60.0:
            attrs.append(f"downtime:{_g(j.downtime_s)}")
        if j.seed != 0:
            attrs.append(f"seed:{j.seed}")
        clauses.append(f"{j.name}={','.join(attrs)}")
    return "; ".join(clauses)


def scenario_matrix(
    nodes=(8,),
    n_jobs=(2,),
    ranks=(96,),
    codecs=("szx",),
    rel_bounds=(1e-3,),
    submit_stagger_s=(0.0,),
) -> list[ClusterSpec]:
    """The cross product of homogeneous scenarios, SimBricks-style.

    Every combination of the axes yields one :class:`ClusterSpec` whose
    ``n_jobs`` identical tenants (named ``j0, j1, ...``) submit at
    ``i * stagger`` seconds.  ``codec=None``/``"none"`` is the
    uncompressed baseline.
    """
    out: list[ClusterSpec] = []
    for nn, nj, rk, codec, eps, stag in itertools.product(
        nodes, n_jobs, ranks, codecs, rel_bounds, submit_stagger_s
    ):
        jobs = tuple(
            JobSpec(
                name=f"j{i}",
                ranks=rk,
                codec=None if codec in (None, "none") else codec,
                rel_bound=eps,
                submit_s=i * stag,
            )
            for i in range(nj)
        )
        out.append(ClusterSpec(n_nodes=nn, jobs=jobs))
    return out


def compression_mixes(
    spec: ClusterSpec,
    choices: dict[str, tuple] | None = None,
) -> list[ClusterSpec]:
    """Every per-tenant compression assignment of ``spec``.

    ``choices`` maps job name → the codecs to try for that job (``None`` =
    uncompressed); by default each job is tried with its configured codec
    and uncompressed.  The cross product over all jobs is the mix space the
    :class:`~repro.core.advisor.ClusterAdvisor` searches.
    """
    per_job = []
    for j in spec.jobs:
        opts = (choices or {}).get(j.name)
        if opts is None:
            opts = tuple(dict.fromkeys((j.codec, None)))
        per_job.append(tuple(opts))
    out = []
    for assignment in itertools.product(*per_job):
        jobs = tuple(
            replace(j, codec=c) for j, c in zip(spec.jobs, assignment)
        )
        out.append(replace(spec, jobs=jobs))
    return out


# -- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class JobOutcome:
    """Everything one tenant did: schedule, lifecycle, write, and energy."""

    spec: JobSpec
    nodes: int
    ranks_per_node: int
    rem: int
    submit_s: float
    start_s: float
    backfilled: bool
    pre_s: float  # compute/lifecycle makespan before the output dump
    lifecycle: LifecycleStats | None
    t_comp: float
    t_serialize: float
    out_bytes: int
    t0: float  # absolute time this job's flows entered the PFS
    finish_s: float  # absolute end of the write (incl. open/commit latency)
    write_time_s: float  # serialize + drain, the campaign convention
    dedicated_write_time_s: float  # same write alone on the machine
    compress_energy_j: float
    write_energy_j: float
    lifecycle_energy_j: float

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.submit_s

    @property
    def stretch(self) -> float:
        """Contended write time over the dedicated write time (>= 1)."""
        if self.dedicated_write_time_s <= 0:
            return 1.0
        return self.write_time_s / self.dedicated_write_time_s

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write_energy_j + self.lifecycle_energy_j


@dataclass(frozen=True)
class ClusterTimeline:
    """One converged cluster simulation."""

    spec: ClusterSpec
    jobs: tuple[JobOutcome, ...]
    makespan_s: float
    iterations: int  # fixed-point passes until the schedule reproduced itself

    @property
    def total_energy_j(self) -> float:
        return sum(j.total_energy_j for j in self.jobs)


@dataclass
class _JobState:
    """Per-job quantities that stay fixed across fixed-point iterations."""

    spec: JobSpec
    nodes: int
    rpn: int
    rem: int
    t_comp: float
    t_serialize: float
    out_bytes: int
    cpu_s: float  # t_comp + t_serialize, one schedule delay
    pre_s: float
    lifecycle: LifecycleStats | None
    dedicated_drain_s: float  # write drain alone on the machine (est. seed)
    est_s: float  # walltime estimate used for backfill reservations


def _prepare_jobs(
    spec: ClusterSpec,
    campaign: MultiNodeCampaign,
    ratios: dict[str, float],
) -> list[_JobState]:
    """Price every job's schedule-independent quantities once."""
    states: list[_JobState] = []
    # Dedicated drains per tenant class: jobs with equal (ranks, out_bytes,
    # cpu_s) put the same flows on the PFS, so one solve prices them all.
    drains: dict[tuple[int, int, float], float] = {}
    # Tenants share a handful of (codec, rel_bound, ratio) triples, so each
    # write prelude is priced once.
    preludes: dict[tuple[str | None, float, float], tuple[float, float, int]] = {}
    for job in spec.jobs:
        nodes, rpn, rem = campaign._topology(job.ranks)
        if nodes > spec.n_nodes:
            raise ConfigurationError(
                f"job {job.name!r} needs {nodes} nodes for {job.ranks} ranks "
                f"({campaign.cpu.cores} cores/node) but the cluster has only "
                f"{spec.n_nodes}: over-subscribed scenarios cannot be scheduled"
            )
        ratio = 1.0
        if job.codec is not None:
            if job.name not in ratios:
                raise ConfigurationError(
                    f"job {job.name!r} compresses with {job.codec} but has no "
                    "measured compression ratio in `ratios`"
                )
            ratio = float(ratios[job.name])
        triple = (job.codec, job.rel_bound, ratio)
        if triple not in preludes:
            preludes[triple] = campaign.write_prelude(*triple)
        t_comp, t_serialize, out_bytes = preludes[triple]
        cpu_s = t_comp + t_serialize

        # Dedicated write drain: this job's flows alone on the PFS, arriving
        # at the same relative time they would in the schedule.  Seeds the
        # fixed point and prices the backfill walltime estimate.
        key = (job.ranks, out_bytes, cpu_s)
        if key not in drains:
            (solo,) = campaign.pfs.concurrent_write_times(
                np.array([out_bytes], dtype=np.float64),
                efficiency=campaign.io.cost.bandwidth_efficiency,
                arrivals=np.array([cpu_s]),
                counts=np.array([job.ranks]),
            )
            drains[key] = float(solo + campaign.io.cost.open_latency_s) - cpu_s
        dedicated_drain = drains[key]

        lifecycle = None
        pre_s = job.work_s
        if job.work_s > 0 and not math.isinf(job.mttf_s):
            # The tenant's compute phase is a checkpoint/failure lifecycle:
            # defensive checkpoints priced at the *dedicated* write cost
            # (they do not enter the shared-PFS solve — only the final
            # output dump contends globally), restarts at the campaign's
            # restart cost, failures drawn from the job's own seeded
            # timeline.  Simulated on its own clock (time local to the job),
            # so the history is identical whether the job starts at t=0 or
            # deep in the queue — which also keeps the fixed point stable.
            ckpt_s = cpu_s + dedicated_drain
            restart_s = campaign._restart_cost(
                job.codec, job.rel_bound, out_bytes, job.ranks
            )
            system_mttf = job.mttf_s / nodes
            tau = resolve_interval(job.interval, ckpt_s, system_mttf, restart_s)
            cspec = CheckpointSpec(
                work_s=job.work_s,
                interval_s=tau,
                ckpt_s=ckpt_s,
                restart_s=restart_s,
                mttf_s=system_mttf,
                downtime_s=job.downtime_s,
            )
            timeline = FailureModel(job.mttf_s, nodes).timeline(job.seed)
            lifecycle = run_lifecycle(
                cspec,
                timeline,
                ckpt_activity=campaign.io.cost.transfer_activity,
                restart_activity=campaign.io.cost.transfer_activity,
            )
            pre_s = lifecycle.makespan_s

        states.append(
            _JobState(
                spec=job,
                nodes=nodes,
                rpn=rpn,
                rem=rem,
                t_comp=t_comp,
                t_serialize=t_serialize,
                out_bytes=out_bytes,
                cpu_s=cpu_s,
                pre_s=pre_s,
                lifecycle=lifecycle,
                dedicated_drain_s=dedicated_drain,
                est_s=pre_s + cpu_s + dedicated_drain,
            )
        )
    return states


# Heap-entry kinds of the schedule replay: a submission, a scheduler
# wake-up, and a job's stages in the order they follow one another, each
# entered when the delay before it has elapsed.
_SUBMIT, _SCHED, _GRANTED, _COMPUTED, _PREPARED, _DRAINED = range(6)


def _run_schedule(
    cluster: ClusterSpec,
    states: list[_JobState],
    drains: dict[str, float],
) -> tuple[dict[str, float], dict[str, float], dict[str, bool]]:
    """One deterministic pass of the FIFO + EASY-backfill schedule.

    ``drains`` carries each job's write-drain duration for this pass (from
    the previous global PFS solve).  Returns per-job start times, the
    absolute PFS arrival times the replay produced, and the backfill flags.
    Node-release times use this pass's drains; backfill *reservations* use
    the fixed dedicated-run walltime estimates (``est_s``) — like
    user-provided walltimes on a real machine, they may be overrun under
    contention.

    The replay is a heap of ``(time, seq, kind, job)`` entries: one per
    delay a job waits through (submission, grant, compute, compress and
    serialize, drain) and one per scheduler wake-up.  Times advance as
    ``now + delay``, one delay at a time, and ``seq`` grows with every push,
    so entries at equal times run in push order: submissions in job order,
    granted jobs in grant order, and the scheduler after every entry
    already queued for its wake-up time.
    """
    names = [st.spec.name for st in states]
    index = {name: i for i, name in enumerate(names)}
    alloc = {st.spec.name: st.nodes for st in states}
    est = {st.spec.name: st.est_s for st in states}
    free = cluster.n_nodes
    granted = 0
    waiting = False  # the scheduler sleeps until a submit or a release
    queue: list[str] = []  # job names, FIFO by arrival
    running: dict[str, float] = {}  # name -> estimated end, for reservations
    starts: dict[str, float] = {}
    arrivals: dict[str, float] = {}
    backfilled: dict[str, bool] = {}
    heap: list[tuple[float, int, int, int]] = []
    seq = itertools.count()
    now = 0.0

    def grant(name: str, backfill: bool):
        nonlocal free, granted
        free -= alloc[name]
        granted += 1
        backfilled[name] = backfill
        # Reservation bookkeeping sees the fixed walltime estimate.
        running[name] = now + est[name]
        heapq.heappush(heap, (now, next(seq), _GRANTED, index[name]))

    def try_schedule():
        progress = True
        while progress:
            progress = False
            while queue and alloc[queue[0]] <= free:
                grant(queue.pop(0), backfill=False)
                progress = True
            if not queue:
                return
            head = queue[0]
            # EASY reservation: find the shadow time when the head fits,
            # accumulating releases in estimated-end order.
            avail = free
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
                fits_now = alloc[cand] <= free
                harmless = now + est[cand] <= shadow + 1e-9 or alloc[cand] <= extra
                if fits_now and harmless:
                    queue.remove(cand)
                    grant(cand, backfill=True)
                    progress = True
                    break  # re-derive the reservation with the new state

    def notify():
        nonlocal waiting
        if waiting:
            waiting = False
            heapq.heappush(heap, (now, next(seq), _SCHED, -1))

    # Jobs submitted at t=0 are queued, in job order, before the
    # scheduler's first entry; later submissions wait on the heap.
    for i, st in enumerate(states):
        if st.spec.submit_s > 0:
            heapq.heappush(heap, (st.spec.submit_s, next(seq), _SUBMIT, i))
        else:
            queue.append(names[i])
    heapq.heappush(heap, (0.0, next(seq), _SCHED, -1))

    while heap:
        now, _, kind, i = heapq.heappop(heap)
        if kind == _SUBMIT:
            queue.append(names[i])
            notify()
            continue
        if kind == _SCHED:
            try_schedule()
            waiting = granted < len(states)
            continue
        st = states[i]
        name = names[i]
        if kind == _GRANTED:
            starts[name] = now
            if st.pre_s > 0:
                heapq.heappush(heap, (now + st.pre_s, next(seq), _COMPUTED, i))
                continue
            kind = _COMPUTED
        if kind == _COMPUTED:
            if st.cpu_s > 0:
                heapq.heappush(heap, (now + st.cpu_s, next(seq), _PREPARED, i))
                continue
            kind = _PREPARED
        if kind == _PREPARED:
            arrivals[name] = now  # the flows enter the PFS here
            drain = drains[name]
            if drain > 0:
                heapq.heappush(heap, (now + drain, next(seq), _DRAINED, i))
                continue
        free += alloc[name]
        running.pop(name, None)
        notify()
    if len(starts) != len(states):  # pragma: no cover - defensive
        raise SimulationError("cluster schedule did not grant every job")
    return starts, arrivals, backfilled


def simulate_cluster(
    spec: ClusterSpec,
    campaign: MultiNodeCampaign,
    ratios: dict[str, float] | None = None,
) -> ClusterTimeline:
    """Run ``spec`` on ``campaign``'s machine model to a converged timeline.

    ``ratios`` maps job name → measured compression ratio of that job's
    codec on its dataset (the experiment drivers feed the real value).
    Every compressed job needs an entry — a missing one raises
    :class:`~repro.errors.ConfigurationError` naming the job; uncompressed
    jobs ignore it.  All tenants share the campaign's CPU,
    I/O library, payload, and PFS — one machine, many jobs.
    """
    states = _prepare_jobs(spec, campaign, ratios or {})
    eff = campaign.io.cost.bandwidth_efficiency
    open_latency = campaign.io.cost.open_latency_s
    names = [st.spec.name for st in states]

    # One flow class per tenant: its ranks push equal flows at one arrival.
    tenant_ranks = np.array([st.spec.ranks for st in states])
    sizes = np.array([st.out_bytes for st in states], dtype=np.float64)
    drains = {st.spec.name: st.dedicated_drain_s for st in states}
    prev_starts: dict[str, float] | None = None
    starts: dict[str, float] = {}
    arrivals: dict[str, float] = {}
    backfilled: dict[str, bool] = {}

    for iteration in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
        starts, arrivals, backfilled = _run_schedule(spec, states, drains)
        # Arrivals are a function of starts, so a repeated schedule would
        # hand the PFS solve last pass's input and get last pass's finish
        # times back bit for bit: keep those instead of solving again.
        converged = prev_starts is not None and all(
            starts[n] == prev_starts[n] for n in names
        )
        if not converged:
            # One cluster-wide fair-share solve: every tenant's rank flows,
            # staggered by when the schedule actually released them.
            finish = campaign.pfs.concurrent_write_times(
                sizes,
                efficiency=eff,
                arrivals=np.array([arrivals[n] for n in names]),
                counts=tenant_ranks,
            )
            ends = (finish + open_latency).tolist()  # one finish per tenant
            drains = {n: end - arrivals[n] for n, end in zip(names, ends)}
        tracer = active_tracer()
        if tracer is not None:
            # One virtual span per fixed-point pass, covering the schedule
            # horizon that pass computed — successive passes visualise the
            # solve converging.
            tracer.add_span(
                f"pass:{iteration}", "fixed-point", 0.0, max(ends),
                iteration=iteration,
            )
        if converged:
            break
        prev_starts = starts
    else:
        raise SimulationError(
            f"cluster schedule did not reach a fixed point in "
            f"{MAX_FIXED_POINT_ITERATIONS} iterations"
        )

    # Every metered node of every tenant goes into one batch: per node class
    # (full nodes, partial last node) its write campaign and, when the
    # tenant computes first, its lifecycle.  The lifecycle timeline is
    # bulk-synchronous across the allocation: every node plays the same
    # phases with its own rank count (down windows stay zero-core idle).
    activity = campaign.io.cost.transfer_activity
    batch: list[list[costs.PhaseTuple]] = []
    for st, end in zip(states, ends):
        intervals = (
            st.lifecycle.intervals
            if st.lifecycle is not None
            else (Interval(0.0, st.pre_s, 1, 1.0, "compute"),)
        )
        for ranks, _ in costs.node_classes(st.nodes, st.rpn, st.rem):
            batch.append(
                costs.write_phases(
                    ranks=ranks,
                    t_comp=st.t_comp,
                    t_serialize=st.t_serialize,
                    t0=arrivals[st.spec.name],
                    finish=end,
                    transfer_activity=activity,
                )
            )
            if st.pre_s > 0:
                batch.append(
                    [
                        (
                            iv.end_s - iv.start_s,
                            ranks if iv.active_cores > 0 else 0,
                            iv.activity,
                            iv.label,
                        )
                        for iv in intervals
                    ]
                )
    metered = iter(
        costs.measure_node_phases(
            campaign.cpu, batch, sample_interval=campaign.sample_interval
        )
    )

    outcomes = []
    for st, end in zip(states, ends):
        name = st.spec.name
        t0 = arrivals[name]
        compress_j = write_j = lifecycle_j = 0.0
        for _, count in costs.node_classes(st.nodes, st.rpn, st.rem):
            by_label = next(metered)
            compress_j += by_label.get("compress", 0.0) * count
            write_j += by_label.get("write", 0.0) * count
            if st.pre_s > 0:
                lifecycle_j += sum(next(metered).values()) * count

        outcomes.append(
            JobOutcome(
                spec=st.spec,
                nodes=st.nodes,
                ranks_per_node=st.rpn,
                rem=st.rem,
                submit_s=st.spec.submit_s,
                start_s=starts[name],
                backfilled=backfilled[name],
                pre_s=st.pre_s,
                lifecycle=st.lifecycle,
                t_comp=st.t_comp,
                t_serialize=st.t_serialize,
                out_bytes=st.out_bytes,
                t0=t0,
                finish_s=end,
                write_time_s=st.t_serialize + (end - t0),
                dedicated_write_time_s=st.t_serialize + st.dedicated_drain_s,
                compress_energy_j=compress_j,
                write_energy_j=write_j,
                lifecycle_energy_j=lifecycle_j,
            )
        )

    timeline = ClusterTimeline(
        spec=spec,
        jobs=tuple(outcomes),
        makespan_s=max(o.finish_s for o in outcomes),
        iterations=iteration,
    )
    tracer = active_tracer()
    if tracer is not None:
        _trace_timeline(tracer, timeline)
    return timeline


def _trace_timeline(tracer, timeline: ClusterTimeline) -> None:
    """Virtual Gantt of one converged cluster run: one track per tenant.

    Emitted strictly after convergence from the outcome records, so tracing
    can never perturb the fixed point.  The whole-job span's args carry the
    *exact* finish time and energy floats (JSON round-trips ``repr``-exact
    doubles), which is what lets the traced-equals-untraced tests recover
    makespan and total energy bit-identically from the trace file alone.
    """
    for o in timeline.jobs:
        track = f"tenant:{o.spec.name}"
        tracer.instant(
            f"grant:{o.spec.name}", "scheduler", o.start_s,
            backfilled=o.backfilled, nodes=o.nodes,
        )
        if o.start_s > o.submit_s:
            tracer.add_span("queued", track, o.submit_s, o.start_s)
        if o.pre_s > 0:
            if o.lifecycle is not None:
                trace_intervals(tracer, o.lifecycle.intervals, track,
                                offset_s=o.start_s)
            else:
                tracer.add_span("compute", track, o.start_s,
                                o.start_s + o.pre_s)
        cpu0 = o.t0 - (o.t_comp + o.t_serialize)
        if o.t_comp > 0:
            tracer.add_span("compress", track, cpu0, cpu0 + o.t_comp,
                            codec=o.spec.codec or "none")
        if o.t_serialize > 0:
            tracer.add_span("serialize", track, cpu0 + o.t_comp, o.t0)
        tracer.add_span("pfs-drain", track, o.t0, o.finish_s,
                        out_bytes=o.out_bytes, write_time_s=o.write_time_s,
                        stretch=o.stretch)
        tracer.add_span(
            f"job:{o.spec.name}", track, o.submit_s, o.finish_s,
            finish_s=o.finish_s,
            compress_energy_j=o.compress_energy_j,
            write_energy_j=o.write_energy_j,
            lifecycle_energy_j=o.lifecycle_energy_j,
            total_energy_j=o.total_energy_j,
            backfilled=o.backfilled,
            nodes=o.nodes,
        )
    tracer.add_span(
        "cluster", "scheduler", 0.0, timeline.makespan_s,
        makespan_s=timeline.makespan_s,
        total_energy_j=timeline.total_energy_j,
        iterations=timeline.iterations,
        n_jobs=len(timeline.jobs),
    )
