"""Multi-tenant cluster scheduler: exact pins, contention, backfill.

The acceptance spine of the scheduler layer: the one-tenant solves behind
:meth:`MultiNodeCampaign.run` are pinned to exact values, contended tenants
must see strictly longer writes than dedicated ones, the EASY-backfill
schedule must be deterministic, and the registry plumbing (store keys,
nested-record round-trips, schema gates) must hold for the cluster kind.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as hst

from repro.cluster import (
    ClusterSpec,
    JobSpec,
    MultiNodeCampaign,
    compression_mixes,
    format_scenario,
    parse_scenario,
    scenario_matrix,
    simulate_cluster,
)
from repro.cluster import scheduler
from repro.cluster.scheduler import _JobState
from repro.energy import get_cpu
from repro.errors import ConfigurationError, SimulationError
from repro.iolib import PFSModel, get_io_library, pfs
from repro.obs import tracing

from reference.cluster import reference_measure_node_phases, reference_run_schedule
from reference.iolib import reference_fair_share_schedule


@pytest.fixture(scope="module")
def campaign():
    return MultiNodeCampaign(
        cpu=get_cpu("plat8160"),
        pfs=PFSModel(),
        io_library=get_io_library("hdf5"),
        payload_nbytes=90 * 10**6,
        complexity=0.48,
    )


class TestScenarioGrammar:
    def test_roundtrip(self):
        text = (
            "nodes=8; a=ranks:96,codec:szx; "
            "b=ranks:48,codec:sz3,bound:0.01,submit:5,work:600,mttf:86400"
        )
        spec = parse_scenario(text)
        assert spec.n_nodes == 8
        a, b = spec.jobs
        assert (a.name, a.ranks, a.codec) == ("a", 96, "szx")
        assert (b.codec, b.rel_bound, b.submit_s) == ("sz3", 0.01, 5.0)
        assert (b.work_s, b.mttf_s) == (600.0, 86400.0)
        assert parse_scenario(format_scenario(spec)) == spec

    def test_canonical_form_is_spelling_invariant(self):
        # Reordered attributes and explicit defaults canonicalise to one
        # string — the store-key identity of the scenario.
        variants = (
            "nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:none",
            "nodes=4; a=codec:szx,ranks:8; b=ranks:8,codec:none",
            "nodes=4; a=ranks:8,codec:szx,bound:1e-3,submit:0; b=ranks:8",
            "nodes=4 ;  a = ranks:8 , codec:szx ; b=ranks:8,codec:-",
        )
        canon = {format_scenario(parse_scenario(v)) for v in variants}
        assert len(canon) == 1

    def test_clause_order_is_semantic(self):
        # Job order breaks FIFO submit ties, so swapping clauses is a
        # different scenario and must not canonicalise together.
        ab = format_scenario(parse_scenario("nodes=4; a=ranks:8; b=ranks:8"))
        ba = format_scenario(parse_scenario("nodes=4; b=ranks:8; a=ranks:8"))
        assert ab != ba

    def test_format_is_idempotent(self):
        text = "nodes=4; a=ranks:8,codec:szx,bound:0.01; b=ranks:16,submit:3"
        canon = format_scenario(parse_scenario(text))
        assert format_scenario(parse_scenario(canon)) == canon

    def test_numeric_interval_roundtrips(self):
        spec = parse_scenario(
            "nodes=2; a=ranks:8,work:600,mttf:3600,interval:120,seed:7"
        )
        assert spec.jobs[0].interval == 120.0
        assert spec.jobs[0].seed == 7
        assert parse_scenario(format_scenario(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "a=ranks:8",  # no nodes clause
            "nodes=4",  # no jobs
            "nodes=4; nodes=8; a=ranks:8",  # duplicate nodes
            "nodes=x; a=ranks:8",  # bad node count
            "nodes=4; a=ranks:8,ranks:16",  # duplicate attribute
            "nodes=4; a=ranks:8,color:blue",  # unknown attribute
            "nodes=4; a=codec:szx",  # missing ranks
            "nodes=4; a=ranks:eight",  # bad value
            "nodes=4; a=ranks",  # malformed attribute
            "nodes=4; a=ranks:8; a=ranks:16",  # duplicate job name
        ],
    )
    def test_bad_scenarios_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_scenario(bad)


class TestSpecValidation:
    def test_zero_rank_job_rejected(self):
        with pytest.raises(ConfigurationError, match="zero-node"):
            JobSpec(name="a", ranks=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rel_bound=0.0),
            dict(submit_s=-1.0),
            dict(work_s=-5.0),
            dict(mttf_s=0.0),
            dict(downtime_s=-1.0),
            dict(mttf_s=math.nan),
            # Non-finite values: the schedule replay adds them as delays.
            *(
                {field: value}
                for field in ("rel_bound", "submit_s", "work_s", "downtime_s")
                for value in (math.nan, math.inf, -math.inf)
            ),
        ],
    )
    def test_bad_job_parameters_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=f"job 'a': {field}"):
            JobSpec(name="a", ranks=8, **kwargs)

    def test_infinite_mttf_is_the_default(self):
        assert JobSpec(name="a", ranks=8, mttf_s=math.inf) == JobSpec(name="a", ranks=8)

    @pytest.mark.parametrize(
        "attr, field",
        [
            ("submit:nan", "submit_s"),
            ("submit:inf", "submit_s"),
            ("work:nan", "work_s"),
            ("work:inf", "work_s"),
            ("bound:nan", "rel_bound"),
            ("downtime:nan", "downtime_s"),
            ("downtime:inf", "downtime_s"),
        ],
    )
    def test_non_finite_scenario_values_rejected(self, attr, field):
        message = f"job 'a': {field} must be finite"
        with pytest.raises(ConfigurationError, match=message):
            parse_scenario(f"nodes=2; a=ranks:8,codec:szx,{attr}")

    def test_bad_job_names_rejected(self):
        for name in ("", "a;b", "a,b", "a=b", "a:b", "a b"):
            with pytest.raises(ConfigurationError):
                JobSpec(name=name, ranks=8)

    def test_cluster_spec_validation(self):
        job = JobSpec(name="a", ranks=8)
        with pytest.raises(ConfigurationError):
            ClusterSpec(n_nodes=0, jobs=(job,))
        with pytest.raises(ConfigurationError):
            ClusterSpec(n_nodes=4, jobs=())
        with pytest.raises(ConfigurationError, match="duplicate"):
            ClusterSpec(n_nodes=4, jobs=(job, JobSpec(name="a", ranks=16)))

    def test_over_subscribed_scenario_rejected(self, campaign):
        # 96 ranks need 2 nodes of this 48-core CPU; a 1-node cluster
        # can never run the job.
        spec = ClusterSpec(n_nodes=1, jobs=(JobSpec(name="wide", ranks=96),))
        with pytest.raises(ConfigurationError, match="over-subscribed"):
            simulate_cluster(spec, campaign)

    def test_compressed_job_without_ratio_rejected(self, campaign):
        # A compressed tenant with no measured ratio used to be priced at
        # ratio 1.0: full compression time, yet the full payload written.
        spec = parse_scenario("nodes=2; a=ranks:8,codec:sz3")
        with pytest.raises(ConfigurationError, match="job 'a'.*ratio"):
            simulate_cluster(spec, campaign, {})


class TestMatrixHelpers:
    def test_scenario_matrix_cross_product(self):
        specs = scenario_matrix(
            nodes=(4, 8),
            n_jobs=(2,),
            ranks=(48,),
            codecs=("szx", "none"),
            submit_stagger_s=(0.0, 10.0),
        )
        assert len(specs) == 8
        staggered = specs[1]
        assert [j.name for j in staggered.jobs] == ["j0", "j1"]
        assert staggered.jobs[1].submit_s in (0.0, 10.0)
        codecs = {tuple(j.codec for j in s.jobs) for s in specs}
        assert ("szx", "szx") in codecs and (None, None) in codecs

    def test_compression_mixes_default_space(self):
        base = parse_scenario("nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:sz3")
        mixes = compression_mixes(base)
        assert len(mixes) == 4  # {szx, None} x {sz3, None}
        assignments = {tuple(j.codec for j in m.jobs) for m in mixes}
        assert assignments == {
            ("szx", "sz3"), ("szx", None), (None, "sz3"), (None, None),
        }

    def test_uncompressed_jobs_stay_uncompressed(self):
        base = parse_scenario("nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:none")
        mixes = compression_mixes(base)
        assert len(mixes) == 2
        assert all(m.jobs[1].codec is None for m in mixes)

    def test_explicit_choices(self):
        base = parse_scenario("nodes=4; a=ranks:8,codec:szx")
        mixes = compression_mixes(base, choices={"a": ("szx", "sz3", None)})
        assert [m.jobs[0].codec for m in mixes] == ["szx", "sz3", None]


class TestExactPins:
    """Exact ``CampaignResult`` fields of four Fig. 12 campaign points.

    A one-rank job, a full-node uncompressed job, a partial last node
    (100 ranks on 48-core nodes) and a PFS-saturating compressed job.  Any
    change to how a campaign point is priced must leave every value
    identical — exact equality, not approx.
    """

    PINS = {
        (1, None, 1.0): dict(
            codec=None, total_cores=1, nodes=1, ranks_per_node=1,
            compress_energy_j=0.0, write_energy_j=16.316724,
            compress_time_s=0.0, write_time_s=0.14164593301435408,
            bytes_per_rank=90000000, written_bytes_total=90000000, n_ranks=1,
        ),
        (16, None, 1.0): dict(
            codec=None, total_cores=16, nodes=1, ranks_per_node=16,
            compress_energy_j=0.0, write_energy_j=58.939116,
            compress_time_s=0.0, write_time_s=0.42585645933014354,
            bytes_per_rank=90000000, written_bytes_total=1440000000, n_ranks=16,
        ),
        (100, "sz3", 20.0): dict(
            codec="sz3", total_cores=100, nodes=3, ranks_per_node=48,
            compress_energy_j=1217.092282, write_energy_j=54.872465,
            compress_time_s=0.984, write_time_s=0.12646650717703342,
            bytes_per_rank=4500000, written_bytes_total=450000000, n_ranks=100,
        ),
        (512, "szx", 7.3): dict(
            codec="szx", total_cores=512, nodes=11, ranks_per_node=48,
            compress_energy_j=1257.534511, write_energy_j=2816.596302,
            compress_time_s=0.21646153846153846, write_time_s=1.6727431176315788,
            bytes_per_rank=12328767, written_bytes_total=6312328704, n_ranks=512,
        ),
    }

    @pytest.mark.parametrize("point", list(PINS), ids=lambda p: "-".join(map(str, p)))
    def test_campaign_point_pinned(self, campaign, point):
        ranks, codec, ratio = point
        r = campaign.run(ranks, codec, 1e-3, compression_ratio=ratio)
        expected = self.PINS[point]
        assert {name: getattr(r, name) for name in expected} == expected

    def test_single_tenant_converges_immediately(self, campaign):
        spec = ClusterSpec(n_nodes=1, jobs=(JobSpec(name="solo", ranks=16),))
        assert simulate_cluster(spec, campaign).iterations == 2


class TestContention:
    def test_two_tenants_stretch_strictly(self, campaign):
        spec = parse_scenario(
            "nodes=22; a=ranks:512,codec:none; b=ranks:512,codec:none"
        )
        timeline = simulate_cluster(spec, campaign)
        for job in timeline.jobs:
            assert job.write_time_s > job.dedicated_write_time_s
            assert job.stretch > 1.5  # two writers share one aggregate
        # Symmetric tenants submitted together see identical physics.
        a, b = timeline.jobs
        assert a.write_time_s == b.write_time_s
        assert a.total_energy_j == b.total_energy_j

    def test_contended_energy_exceeds_dedicated(self, campaign):
        contended = simulate_cluster(
            parse_scenario("nodes=22; a=ranks:512,codec:none; b=ranks:512,codec:none"),
            campaign,
        )
        solo = simulate_cluster(
            parse_scenario("nodes=22; a=ranks:512,codec:none"), campaign
        )
        # Longer writes burn more node-seconds: machine-wide energy of two
        # contending tenants exceeds twice the dedicated tenant's.
        assert contended.total_energy_j > 2 * solo.total_energy_j

    def test_makespan_is_last_finish(self, campaign):
        spec = parse_scenario(
            "nodes=4; a=ranks:48,codec:szx; b=ranks:48,codec:none,submit:2"
        )
        timeline = simulate_cluster(spec, campaign, {"a": 7.0})
        assert timeline.makespan_s == max(j.finish_s for j in timeline.jobs)


class TestScheduler:
    def test_fifo_queue_wait(self, campaign):
        # One node, two jobs: b must wait for a's full occupancy.
        spec = parse_scenario("nodes=1; a=ranks:48; b=ranks:48,submit:1")
        timeline = simulate_cluster(spec, campaign)
        a, b = timeline.jobs
        assert a.start_s == 0.0
        assert b.start_s == a.finish_s
        assert b.queue_wait_s > 0

    def test_backfill_past_blocked_wide_job(self, campaign):
        # a occupies 1 of 2 nodes for a long compute; b needs both nodes
        # and blocks; c (short, narrow) must backfill around b without
        # delaying it.
        spec = parse_scenario(
            "nodes=2; a=ranks:48,work:300; b=ranks:96,submit:1; "
            "c=ranks:48,submit:2,work:10"
        )
        timeline = simulate_cluster(spec, campaign)
        jobs = {j.spec.name: j for j in timeline.jobs}
        assert jobs["c"].backfilled
        assert not jobs["a"].backfilled and not jobs["b"].backfilled
        assert jobs["c"].start_s < jobs["b"].start_s
        # b starts once a's node frees — c's backfill ran in the shadow.
        assert jobs["b"].start_s >= jobs["a"].finish_s

    def test_same_seed_timeline_is_deterministic(self, campaign):
        text = (
            "nodes=4; a=ranks:96,codec:szx,work:900,mttf:14400,seed:3; "
            "b=ranks:48,codec:none,submit:5; c=ranks:48,submit:9,work:60"
        )
        runs = [
            simulate_cluster(parse_scenario(text), campaign, {"a": 7.0})
            for _ in range(2)
        ]
        first, second = runs
        assert first.makespan_s == second.makespan_s
        assert first.iterations == second.iterations
        for j1, j2 in zip(first.jobs, second.jobs):
            assert j1.start_s == j2.start_s
            assert j1.finish_s == j2.finish_s
            assert j1.total_energy_j == j2.total_energy_j
            assert j1.backfilled == j2.backfilled

    def test_write_bytes_conserved_across_tenants(self, campaign):
        # The global solve must move exactly each tenant's bytes no matter
        # how the flows interleave.
        spec = parse_scenario(
            "nodes=22; a=ranks:512,codec:szx; b=ranks:512,codec:none,submit:1"
        )
        timeline = simulate_cluster(spec, campaign, {"a": 7.3})
        for job in timeline.jobs:
            assert job.finish_s >= job.t0
        # The shared link cannot move the combined payload faster than its
        # aggregate ceiling allows.
        total_mb = sum(j.out_bytes * j.spec.ranks for j in timeline.jobs) / 1e6
        eff = campaign.io.cost.bandwidth_efficiency
        window = max(j.finish_s for j in timeline.jobs) - min(
            j.t0 for j in timeline.jobs
        )
        assert window >= total_mb / (campaign.pfs.aggregate_bw_mbps * eff) - 1e-9


class TestClassSolverOracle:
    """The cluster solve through the flow-class fair-share solver equals, bit
    for bit, the same solve through the per-flow reference solver."""

    @staticmethod
    def _seeded(seed: int, n: int = 24) -> ClusterSpec:
        # More demand than nodes, mixed widths and compute phases, so
        # tenants queue and narrow ones backfill; a quarter run a
        # checkpoint/failure lifecycle.
        rng = np.random.default_rng(seed)
        mix = ("szx", "sz3", "zfp", None)
        jobs = tuple(
            JobSpec(
                name=f"t{i}",
                ranks=int(rng.choice((24, 48, 96, 144))),
                codec=mix[int(rng.integers(len(mix)))],
                submit_s=float(i * rng.uniform(0.0, 2.0)),
                work_s=float(rng.uniform(1.0, 40.0)),
                mttf_s=14400.0 if i % 4 == 0 else math.inf,
                seed=i,
            )
            for i in range(n)
        )
        return ClusterSpec(n_nodes=6, jobs=jobs)

    @staticmethod
    def _solve_both(spec, campaign, monkeypatch):
        def per_flow(arrivals, sizes_bytes, per_flow_cap_mbps,
                     aggregate_cap_mbps, counts=None):
            # Every class expanded into its rank flows for the reference;
            # all flows of a class must finish at the same bits.
            counts = np.ones(len(arrivals), int) if counts is None else counts
            finish = reference_fair_share_schedule(
                np.repeat(arrivals, counts), np.repeat(sizes_bytes, counts),
                per_flow_cap_mbps, aggregate_cap_mbps,
            )
            heads = np.cumsum(counts) - counts
            assert finish.tobytes() == np.repeat(finish[heads], counts).tobytes()
            return finish[heads]

        ratios = {j.name: 4.0 + len(j.name) for j in spec.jobs if j.codec}
        fast = simulate_cluster(spec, campaign, ratios)
        monkeypatch.setattr(pfs, "fair_share_schedule", per_flow)
        return fast, simulate_cluster(spec, campaign, ratios)

    @staticmethod
    def _assert_equal(fast, ref):
        assert fast.iterations == ref.iterations
        assert fast.makespan_s == ref.makespan_s
        for a, b in zip(fast.jobs, ref.jobs, strict=True):
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), (
                    a.spec.name, field.name
                )

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_seeded_multi_tenant_timeline(self, campaign, monkeypatch, seed):
        spec = self._seeded(seed)
        fast, ref = self._solve_both(spec, campaign, monkeypatch)
        self._assert_equal(fast, ref)
        assert any(j.start_s > j.submit_s for j in fast.jobs)  # queued
        assert any(j.backfilled for j in fast.jobs)
        assert any(j.lifecycle is not None for j in fast.jobs)

    @pytest.mark.parametrize(
        "text",
        [
            "nodes=2; a=ranks:48,work:300; b=ranks:96,submit:1; "
            "c=ranks:48,submit:2,work:10",
            "nodes=4; a=ranks:96,codec:szx,work:900,mttf:14400,seed:3; "
            "b=ranks:48,codec:none,submit:5; c=ranks:48,submit:9,work:60",
            "nodes=22; a=ranks:512,codec:szx; b=ranks:512,codec:none,submit:1",
        ],
    )
    def test_scenario_timeline(self, campaign, monkeypatch, text):
        fast, ref = self._solve_both(parse_scenario(text), campaign, monkeypatch)
        self._assert_equal(fast, ref)


def _schedule(n_nodes, rows):
    """A cluster, its job states and one pass's drains, one job per row of
    ``(submit_s, nodes, pre_s, cpu_s, est_s, drain)``."""
    states, drains = [], {}
    for i, (submit_s, nodes, pre_s, cpu_s, est_s, drain) in enumerate(rows):
        spec = JobSpec(name=f"j{i}", ranks=1, submit_s=submit_s, work_s=pre_s)
        states.append(
            _JobState(
                spec=spec,
                nodes=nodes,
                rpn=1,
                rem=0,
                t_comp=cpu_s,
                t_serialize=0.0,
                out_bytes=1,
                cpu_s=cpu_s,
                pre_s=pre_s,
                lifecycle=None,
                dedicated_drain_s=0.0,
                est_s=est_s,
            )
        )
        drains[spec.name] = drain
    cluster = ClusterSpec(n_nodes=n_nodes, jobs=tuple(st.spec for st in states))
    return cluster, states, drains


@hst.composite
def small_schedules(draw):
    """Integer submit times, a few shared estimates and drains, and zero
    compute, compress and drain phases put many entries at equal times;
    jobs may need the whole machine, and narrow ones queue behind them."""
    n_nodes = draw(hst.integers(1, 4))
    row = hst.tuples(
        hst.integers(0, 4),
        hst.one_of(hst.just(n_nodes), hst.integers(1, n_nodes)),
        hst.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
        hst.sampled_from((0.0, 0.25, 1.0)),
        hst.sampled_from((0.0, 1.0, 2.0, 4.0, 8.0)),
        hst.one_of(
            hst.sampled_from((0.0, 0.5, 1.0, 2.0)),
            hst.floats(0.0, 5.0, allow_nan=False),
        ),
    )
    return _schedule(n_nodes, draw(hst.lists(row, min_size=1, max_size=8)))


class TestScheduleReplay:
    """``_run_schedule`` replays the generator schedule on a plain event
    heap: same starts, arrivals and backfill flags, ties included."""

    @settings(max_examples=400, deadline=None)
    @given(small_schedules())
    # A release and a submission at t=1: both run before the scheduler
    # wakes, so the whole-machine head is granted and j2 does not backfill.
    @example(
        _schedule(
            3,
            [
                (0, 2, 0.0, 1.0, 2.0, 0.0),
                (0, 3, 2.0, 1.0, 0.0, 0.0),
                (1, 1, 2.0, 1.0, 1.0, 1.0),
            ],
        )
    )
    def test_equals_event_loop_schedule(self, schedule):
        replay = scheduler._run_schedule(*schedule)
        reference = reference_run_schedule(*schedule)
        assert replay == reference
        # Same processing order too: jobs granted, started and released
        # at equal times go in the same sequence.
        assert [list(d) for d in replay] == [list(d) for d in reference]

    def test_generated_schedules_backfill_and_tie(self):
        # The property above sees backfills and jobs granted at the same
        # instant as a release, not only plain FIFO runs.
        def backfills(schedule):
            return any(reference_run_schedule(*schedule)[2].values())

        def ties(schedule):
            starts, arrivals, _ = reference_run_schedule(*schedule)
            ends = {arrivals[n] + schedule[2][n] for n in arrivals}
            return any(starts[n] > 0 and starts[n] in ends for n in starts)

        for condition in (backfills, ties):
            find(
                small_schedules(),
                condition,
                settings=settings(
                    max_examples=2000,
                    derandomize=True,
                    deadline=None,
                    phases=(Phase.generate,),
                ),
            )

    @pytest.mark.parametrize("seed, n", [(1, 24), (2, 24), (7, 24), (2, 300)])
    def test_seeded_timeline_equals_event_loop(self, campaign, monkeypatch, seed, n):
        spec = TestClassSolverOracle._seeded(seed, n)
        ratios = {j.name: 4.0 + len(j.name) for j in spec.jobs if j.codec}
        replay = simulate_cluster(spec, campaign, ratios)
        monkeypatch.setattr(scheduler, "_run_schedule", reference_run_schedule)
        TestClassSolverOracle._assert_equal(
            replay, simulate_cluster(spec, campaign, ratios)
        )
        assert any(j.backfilled for j in replay.jobs)


class TestFixedPoint:
    """The confirming pass reuses the previous PFS solve; the pass count and
    the iteration cap keep their meaning."""

    @staticmethod
    def _spec():
        # No lifecycles (their restart pricing solves the PFS too); this
        # scenario takes three passes.
        seeded = TestClassSolverOracle._seeded(1)
        jobs = tuple(dataclasses.replace(j, mttf_s=math.inf) for j in seeded.jobs)
        spec = dataclasses.replace(seeded, jobs=jobs)
        return spec, {j.name: 4.0 + len(j.name) for j in jobs if j.codec}

    def test_confirming_pass_skips_the_solve(self, campaign, monkeypatch):
        spec, ratios = self._spec()
        states = scheduler._prepare_jobs(spec, campaign, ratios)
        classes = len({(st.spec.ranks, st.out_bytes, st.cpu_s) for st in states})
        solves = []
        original = PFSModel.concurrent_write_times

        def counting(self, *args, **kwargs):
            solves.append(len(args[0]))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PFSModel, "concurrent_write_times", counting)
        with tracing() as tracer:
            timeline = simulate_cluster(spec, campaign, ratios)
        assert timeline.iterations >= 3
        assert len(solves) == timeline.iterations - 1 + classes
        passes = [s for s in tracer.spans if s.track == "fixed-point"]
        assert [s.name for s in passes] == [
            f"pass:{i}" for i in range(1, timeline.iterations + 1)
        ]
        # The confirming pass spans the horizon of the solve it reused.
        assert passes[-1].t1 == passes[-2].t1 == timeline.makespan_s

    def test_iteration_cap(self, campaign, monkeypatch):
        spec, ratios = self._spec()
        iterations = simulate_cluster(spec, campaign, ratios).iterations
        monkeypatch.setattr(scheduler, "MAX_FIXED_POINT_ITERATIONS", iterations)
        assert simulate_cluster(spec, campaign, ratios).iterations == iterations
        monkeypatch.setattr(scheduler, "MAX_FIXED_POINT_ITERATIONS", iterations - 1)
        with pytest.raises(SimulationError, match="did not reach a fixed point"):
            simulate_cluster(spec, campaign, ratios)


class TestOneMeteringPass:
    """A solve meters every node of every tenant in one
    ``costs.measure_node_phases`` call, bit-identically to metering each
    node on its own through the per-phase meter."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.cluster import costs

        seen = []
        original = costs.measure_node_phases

        def counting(*args, **kwargs):
            seen.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(costs, "measure_node_phases", counting)
        monkeypatch.setattr(costs, "stepped_node_energy", None)  # never called
        return seen

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_call_per_solve(self, campaign, calls, seed):
        spec = TestClassSolverOracle._seeded(seed)
        ratios = {j.name: 4.0 for j in spec.jobs if j.codec}
        timeline = simulate_cluster(spec, campaign, ratios)
        # One write node and one lifecycle node per node class.
        classes = sum(
            (1 + (j.pre_s > 0)) * ((j.nodes - (j.rem > 0) > 0) + (j.rem > 0))
            for j in timeline.jobs
        )
        assert calls == [classes]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_equals_node_by_node_meter(self, campaign, monkeypatch, seed):
        from repro.cluster import costs

        spec = TestClassSolverOracle._seeded(seed)
        ratios = {j.name: 4.0 + len(j.name) for j in spec.jobs if j.codec}
        batched = simulate_cluster(spec, campaign, ratios)
        monkeypatch.setattr(
            costs, "measure_node_phases", reference_measure_node_phases
        )
        TestClassSolverOracle._assert_equal(
            batched, simulate_cluster(spec, campaign, ratios)
        )


class TestDedicatedDrainPerClass:
    """``_prepare_jobs`` solves each tenant class's dedicated drain once."""

    def test_one_solve_per_class_and_drains_unchanged(self, campaign, monkeypatch):
        from repro.cluster.scheduler import _prepare_jobs

        # No lifecycles: their restart pricing solves the PFS too.
        seeded = TestClassSolverOracle._seeded(7)
        spec = dataclasses.replace(
            seeded,
            jobs=tuple(dataclasses.replace(j, mttf_s=math.inf) for j in seeded.jobs),
        )
        ratios = {j.name: 4.0 + len(j.name) for j in spec.jobs if j.codec}
        solved = []
        original = PFSModel.concurrent_write_times

        def counting(self, sizes, *args, **kwargs):
            # One class per solve: its flow count is the tenant's ranks.
            (count,) = kwargs["counts"]
            solved.append((int(count), float(sizes[0])))
            return original(self, sizes, *args, **kwargs)

        monkeypatch.setattr(PFSModel, "concurrent_write_times", counting)
        states = _prepare_jobs(spec, campaign, ratios)
        monkeypatch.undo()
        classes = {(st.spec.ranks, st.out_bytes, st.cpu_s) for st in states}
        assert len(solved) == len(classes) < len(states)
        assert sorted(solved) == sorted((r, float(b)) for r, b, _ in classes)

        cost = campaign.io.cost
        for st in states:
            # The per-tenant solve the memo replaced.
            solo = campaign.pfs.concurrent_write_times(
                np.full(st.spec.ranks, st.out_bytes, dtype=np.float64),
                efficiency=cost.bandwidth_efficiency,
                arrivals=np.full(st.spec.ranks, st.cpu_s),
            )
            solo = solo + cost.open_latency_s
            assert st.dedicated_drain_s == float(solo.max()) - st.cpu_s


class TestWritePreludePerTriple:
    """``_prepare_jobs`` prices each ``(codec, rel_bound, ratio)`` write
    prelude once, however many tenants share it."""

    def test_one_prelude_per_triple_and_prices_unchanged(self, campaign, monkeypatch):
        from repro.cluster.scheduler import _prepare_jobs

        spec = TestClassSolverOracle._seeded(3)
        ratios = {j.name: 4.0 + int(j.name[1:]) % 2 for j in spec.jobs if j.codec}
        priced = []
        original = MultiNodeCampaign.write_prelude

        def counting(self, *triple):
            priced.append(triple)
            return original(self, *triple)

        monkeypatch.setattr(MultiNodeCampaign, "write_prelude", counting)
        states = _prepare_jobs(spec, campaign, ratios)
        monkeypatch.undo()
        assert len(priced) == len(set(priced)) < len(states)
        for st in states:
            t_comp, t_serialize, out_bytes = campaign.write_prelude(
                st.spec.codec, st.spec.rel_bound, ratios.get(st.spec.name, 1.0)
            )
            assert st.cpu_s == t_comp + t_serialize
            assert st.out_bytes == out_bytes


class TestLifecycle:
    def test_failure_free_compute_is_plain_hold(self, campaign):
        spec = parse_scenario("nodes=1; a=ranks:48,work:600")
        job = simulate_cluster(spec, campaign).jobs[0]
        assert job.pre_s == 600.0
        assert job.lifecycle is None
        assert job.lifecycle_energy_j > 0  # compute phase still costs energy

    @pytest.mark.parametrize(
        "work, joules", [(1200, 648_000.0), (3600, 1_944_000.0)]
    )
    def test_compute_past_the_counter_wrap(self, campaign, work, joules):
        # 48 cores at TDP deposit over the ~262 kJ RAPL wrap range per
        # zone; the node meter reads every tick, so no wrap is lost.
        spec = parse_scenario(f"nodes=1; a=ranks:48,work:{work}")
        job = simulate_cluster(spec, campaign).jobs[0]
        assert job.lifecycle_energy_j == pytest.approx(joules, rel=1e-9)

    def test_failures_stretch_the_compute_phase(self, campaign):
        spec = parse_scenario("nodes=1; a=ranks:48,work:3600,mttf:7200,seed:1")
        job = simulate_cluster(spec, campaign).jobs[0]
        assert job.lifecycle is not None
        # Checkpoints + failures can only add to the failure-free work.
        assert job.pre_s > 3600.0
        assert job.lifecycle.n_checkpoints > 0
        assert job.lifecycle_energy_j > 0

    def test_restart_fetch_is_one_class(self, campaign, monkeypatch):
        """The all-rank restart fetch is solved as one flow class, equal bit
        for bit to the per-flow solve of every rank's fetch."""
        spec = TestClassSolverOracle._seeded(1)
        ratios = {j.name: 4.0 + len(j.name) for j in spec.jobs if j.codec}
        states = [
            st for st in scheduler._prepare_jobs(spec, campaign, ratios)
            if st.lifecycle is not None
        ]
        assert {st.spec.codec is None for st in states} == {True, False}
        original = PFSModel.concurrent_write_times
        solved = []

        def one_class(self, sizes, *args, **kwargs):
            solved.append((len(sizes), kwargs["counts"].tolist()))
            return original(self, sizes, *args, **kwargs)

        def per_flow(self, sizes, efficiency=1.0, arrivals=None, counts=None):
            assert arrivals is None
            (count,) = counts
            finish = original(self, np.repeat(sizes, count), efficiency)
            assert len(set(finish.tolist())) == 1  # every rank together
            return finish[:1]

        for st in states:
            job = st.spec
            args = (job.codec, job.rel_bound, st.out_bytes, job.ranks)
            solved.clear()
            monkeypatch.setattr(PFSModel, "concurrent_write_times", one_class)
            restart = campaign._restart_cost(*args)
            assert solved == [(1, [job.ranks])]
            monkeypatch.setattr(PFSModel, "concurrent_write_times", per_flow)
            assert restart == campaign._restart_cost(*args)
            monkeypatch.undo()

    def test_lifecycle_independent_of_queue_position(self, campaign):
        # The same seeded lifecycle runs whether the tenant starts at t=0
        # or waits behind another job: failure history is job-local.
        alone = simulate_cluster(
            parse_scenario("nodes=1; a=ranks:48,work:900,mttf:7200,seed:5"),
            campaign,
        ).jobs[0]
        queued = {
            j.spec.name: j
            for j in simulate_cluster(
                parse_scenario(
                    "nodes=1; front=ranks:48,work:60; "
                    "a=ranks:48,work:900,mttf:7200,seed:5,submit:1"
                ),
                campaign,
            ).jobs
        }["a"]
        assert queued.start_s > 0
        assert queued.pre_s == alone.pre_s
        assert queued.lifecycle.n_failures == alone.lifecycle.n_failures
        assert queued.lifecycle_energy_j == alone.lifecycle_energy_j


class TestClusterKindPlumbing:
    """The registry-native surface: store keys, wire records, schema gates."""

    @pytest.fixture(scope="class")
    def testbed(self):
        from repro.core.experiments import Testbed

        return Testbed(scale="tiny")

    @pytest.fixture(scope="class")
    def result(self, testbed):
        import repro.cluster.kind  # noqa: F401

        return testbed.engine.evaluate(
            "cluster_point",
            dataset="cesm",
            scenario="nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:none,submit:1",
            io_library="hdf5",
            cpu_name="plat8160",
        )

    def test_store_key_is_spelling_invariant(self, testbed):
        from repro.runtime.registry import get_kind
        from repro.runtime.spec import SweepSpec
        from repro.runtime.store import point_key, testbed_fingerprint

        fingerprint = testbed_fingerprint(testbed)
        keys = []
        for text in (
            "nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:none",
            "nodes=4; a=codec:szx,ranks:8,bound:1e-3; b=ranks:8",
        ):
            spec = SweepSpec(
                kind="cluster",
                datasets=("cesm",),
                io_libraries=("hdf5",),
                cpus=("plat8160",),
                scenario=text,
            )
            get_kind("cluster").validate(spec)
            (point,) = [
                p for p in get_kind("cluster").expand(spec)
            ]
            keys.append(point_key(point.op, point.as_kwargs(), fingerprint))
        assert keys[0] == keys[1]
        assert len(keys[0]) == 64 and set(keys[0]) <= set("0123456789abcdef")

    def test_nested_record_store_roundtrip(self, result):
        from repro.runtime.store import decode_record, encode_record

        payload = encode_record(result)
        assert payload["__record__"] == "ClusterResult"
        assert all(t["__record__"] == "TenantResult" for t in payload["tenants"])
        assert decode_record(payload) == result

    def test_wire_records_pass_kind_schema_and_invariants(self, result):
        from repro.runtime.registry import get_kind, to_wire

        assert get_kind("cluster").check_records(to_wire([result])) == []

    def test_campaign_records_validate_schema_only(self, campaign):
        from repro.runtime.registry import check_record_payloads, record_types, to_wire

        rec = campaign.run(16, "szx", 1e-3, compression_ratio=7.0)
        cls = record_types()["CampaignResult"]
        assert type(rec) is cls
        assert check_record_payloads(cls, to_wire([rec])) == []
        broken = to_wire([rec])
        del broken[0]["write_energy_j"]
        assert check_record_payloads(cls, broken)

    def test_schema_tool_accepts_kind_and_record_names(self, tmp_path, campaign):
        import json
        import pathlib
        import sys

        tools = str(pathlib.Path(__file__).resolve().parents[1] / "tools")
        sys.path.insert(0, tools)
        try:
            from check_record_schemas import check
        finally:
            sys.path.remove(tools)
        from repro.runtime.registry import to_wire

        rec = campaign.run(16, None, 1e-3)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(to_wire([rec])))
        assert check("CampaignResult", path) == []
        assert check("no_such_kind", path)

    def test_single_tenant_record_matches_campaign(self, testbed):
        # The registry path and run_multinode share the testbed's campaign
        # builder, so a single tenant reproduces the Fig. 12 point.
        import repro.cluster.kind  # noqa: F401

        result = testbed.engine.evaluate(
            "cluster_point",
            dataset="cesm",
            scenario="nodes=1; solo=ranks:16,codec:szx",
            io_library="hdf5",
            cpu_name="plat8160",
        )
        ratio = testbed.roundtrip("cesm", "szx", 1e-3).ratio
        ref = testbed._campaign("cesm", "plat8160", "hdf5").run(
            16, "szx", 1e-3, compression_ratio=ratio
        )
        tenant = result.tenants[0]
        assert tenant.compress_energy_j == ref.compress_energy_j
        assert tenant.write_energy_j == ref.write_energy_j
        assert tenant.write_time_s == ref.write_time_s
        assert tenant.bytes_per_rank == ref.bytes_per_rank


class TestClusterAdvisor:
    def test_contention_flips_the_compress_verdict(self):
        # Three ZFP tenants on nyx at 1e-4: compressing costs energy on a
        # dedicated machine (the compressor works harder than the dedicated
        # write it saves), but with three tenants contending for one PFS
        # aggregate the uncompressed writes stretch ~3x and compression
        # flips to a machine-wide win — the scenario documented in
        # docs/user-guide/cluster.md.
        from repro.core.advisor import ClusterAdvisor
        from repro.core.experiments import Testbed

        advisor = ClusterAdvisor(testbed=Testbed(scale="tiny"))
        advice = advisor.advise(
            "nyx",
            "nodes=3; t0=ranks:48,codec:zfp,bound:1e-4; "
            "t1=ranks:48,codec:zfp,bound:1e-4; t2=ranks:48,codec:zfp,bound:1e-4",
        )
        assert not advice.dedicated_compress_saves
        assert advice.everyone_compress_saves
        assert advice.flips
        assert advice.flip_margin_j > 0
        assert advice.compress
        assert "FLIPS" in advice.rationale
        # The winning mix can only improve on the two uniform assignments.
        assert advice.best_energy_j <= advice.all_energy_j
        assert advice.best_energy_j <= advice.none_energy_j
        assert advice.n_jobs == 3 and len(advice.mixes) == 8
