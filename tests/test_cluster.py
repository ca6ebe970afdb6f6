"""Cluster simulation: the reference event loop, node energy, campaign physics."""

import numpy as np
import pytest

from meter_cases import INTERVALS, METER_CPUS, tick_durations
from reference.cluster import reference_drain_phases, reference_measure_node_phases
from reference.events import EventLoop

from repro.cluster import MultiNodeCampaign
from repro.cluster.costs import measure_node_phases
from repro.energy import get_cpu
from repro.errors import ConfigurationError, SimulationError
from repro.iolib import PFSModel, get_io_library


class TestEventLoop:
    """The event loop the schedule and lifecycle oracles run on."""

    def test_delays_advance_time(self):
        loop = EventLoop()
        trace = []

        def proc():
            trace.append(loop.now)
            yield 1.5
            trace.append(loop.now)
            yield 0.5
            trace.append(loop.now)

        loop.spawn(proc())
        loop.run()
        assert trace == [0.0, 1.5, 2.0]

    def test_events_synchronize(self):
        loop = EventLoop()
        evt = loop.event()
        order = []

        def waiter():
            yield evt
            order.append(("w", loop.now))

        def firer():
            yield 3.0
            evt.fire()
            order.append(("f", loop.now))

        loop.spawn(waiter())
        loop.spawn(firer())
        loop.run()
        assert ("w", 3.0) in order and ("f", 3.0) in order

    def test_deterministic_tie_break(self):
        results = []
        for _ in range(3):
            loop = EventLoop()
            seq = []

            def make(name):
                def proc():
                    yield 1.0
                    seq.append(name)

                return proc

            for n in ("a", "b", "c"):
                loop.spawn(make(n)())
            loop.run()
            results.append(tuple(seq))
        assert len(set(results)) == 1

    def test_negative_delay_rejected(self):
        loop = EventLoop()

        def bad():
            yield -1.0

        loop.spawn(bad())
        with pytest.raises(SimulationError):
            loop.run()

    def test_process_result_captures_return_value(self):
        loop = EventLoop()

        def worker(rank):
            yield 1.0
            return {"rank": rank, "steps": 1}

        procs = [loop.spawn(worker(r)) for r in range(3)]
        loop.run()
        assert [p.result for p in procs] == [
            {"rank": 0, "steps": 1},
            {"rank": 1, "steps": 1},
            {"rank": 2, "steps": 1},
        ]

    def test_process_result_defaults_to_none(self):
        loop = EventLoop()

        def plain():
            yield 0.5

        p = loop.spawn(plain())
        loop.run()
        assert p.finished and p.result is None


class TestNodeModel:
    """Node energy: ``costs.measure_node_phases`` meters labelled phases."""

    @staticmethod
    def _measure(*phases):
        cpu = get_cpu("plat8160")
        (by_label,) = measure_node_phases(cpu, [list(phases)], sample_interval=0.010)
        return by_label

    def test_labelled_energy_split(self):
        energy = self._measure((1.0, 48, 1.0, "compress"), (2.0, 0, 1.0, "write"))
        assert energy["compress"] == pytest.approx(540.0, rel=1e-6)
        assert energy["write"] == pytest.approx(220.0, rel=1e-6)
        assert sum(energy.values()) == pytest.approx(760.0, rel=1e-6)

    def test_zero_duration_skipped(self):
        assert self._measure((0.0, 4, 1.0, "x")) == {}
        assert self._measure((0.0, 4, 1.0, "x"), (0.5, 4, 1.0, "y")).keys() == {"y"}

    def test_core_count_clamped_to_the_node(self):
        assert self._measure((1.0, 480, 1.0, "x")) == self._measure((1.0, 48, 1.0, "x"))

    @pytest.mark.parametrize(
        "duration", [-1.0, float("nan"), float("inf"), float("-inf")], ids=repr
    )
    def test_bad_duration_rejected_when_added(self, duration):
        with pytest.raises(ConfigurationError, match="duration"):
            self._measure((0.5, 4, 1.0, "compress"), (duration, 4, 1.0, "x"))
        assert self._measure((0.5, 4, 1.0, "compress")).keys() == {"compress"}


def _node_batches():
    """(cpu, interval, freq, nodes): catalogue CPUs and a one-socket node,
    nominal or DVFS-pinned, each node a list of labelled phases including
    zero, sub-floor and tail-only ones."""
    from hypothesis import strategies as st

    @st.composite
    def batch(draw):
        cpu = draw(st.sampled_from(METER_CPUS))
        interval = draw(st.sampled_from(INTERVALS + (0.0137,)))
        freq = draw(st.one_of(st.none(), st.sampled_from(cpu.freq_ladder())))
        phase = st.tuples(
            tick_durations(interval),
            st.integers(0, 2 * cpu.cores),  # clamped to the node
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            st.sampled_from(["compress", "write", "idle"]),
        )
        nodes = draw(st.lists(st.lists(phase, max_size=6), max_size=5))
        return cpu, interval, freq, nodes

    return batch()


class TestBatchMetering:
    """``costs.measure_node_phases`` runs the array kernel, bit-identically
    to the per-phase meter it replaced."""

    def test_node_model_equals_per_phase_meter(self):
        # One node per call: the single-node front end the node model was.
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(_node_batches())
        def check(case):
            cpu, interval, freq, nodes = case
            kw = dict(sample_interval=interval, freq_ghz=freq)
            for phases in nodes:
                assert measure_node_phases(cpu, [phases], **kw) == (
                    reference_measure_node_phases(cpu, [phases], **kw)
                )

        check()

    def test_batch_equals_node_by_node(self):
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(_node_batches())
        def check(case):
            cpu, interval, freq, nodes = case
            kw = dict(sample_interval=interval, freq_ghz=freq)
            assert measure_node_phases(cpu, nodes, **kw) == (
                reference_measure_node_phases(cpu, nodes, **kw)
            )

        check()

    @pytest.mark.parametrize(
        "duration", [-1.0, float("nan"), float("inf"), float("-inf")], ids=repr
    )
    def test_bad_duration_rejected(self, duration):
        nodes = [[(0.5, 4, 1.0, "compress")], [(duration, 4, 1.0, "write")]]
        with pytest.raises(ConfigurationError, match="duration"):
            measure_node_phases(get_cpu("plat8160"), nodes, sample_interval=0.02)

    def test_long_phase_keeps_every_wrap(self):
        # 1200 s at full load deposits 324 kJ per zone, past the ~262 kJ
        # wrap range; every tick is read, so no wrap is lost.
        (energy,) = measure_node_phases(
            get_cpu("plat8160"), [[(1200.0, 48, 1.0, "compute")]], sample_interval=0.02
        )
        assert energy["compute"] == pytest.approx(648_000.0, rel=1e-9)


class TestDrainPhases:
    """``drain_phases`` walks distinct finish times, as the per-rank loop
    it replaced did rank by rank."""

    def test_equals_per_rank_loop(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.cluster.costs import drain_phases

        # Finish times on a coarse grid (ties) plus offsets below, at and
        # just above the 1e-9 segment floor.
        offsets = st.sampled_from([0.0, 2e-10, 5e-10, 1e-9, 1.5e-9, 3e-9, 0.01])
        finish = st.builds(
            lambda base, off: 1.0 + 0.25 * base + off, st.integers(0, 6), offsets
        )

        @settings(max_examples=300, deadline=None)
        @given(
            st.lists(finish, min_size=0, max_size=40),
            st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 1.3]),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )
        def check(finishes, t0, activity):
            arr = np.array(finishes, dtype=np.float64)
            ranks = max(len(finishes), 1)
            assert drain_phases(t0, arr, ranks, activity) == reference_drain_phases(
                t0, arr, ranks, activity
            )

        check()

    def test_one_segment_for_a_tenant_finishing_together(self):
        from repro.cluster.costs import drain_phases

        phases = drain_phases(0.5, np.full(224, 2.75), 224, 0.3)
        assert phases == [(2.25, 224, 0.3, "write")]


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return MultiNodeCampaign(
            cpu=get_cpu("plat8160"),
            pfs=PFSModel(),
            io_library=get_io_library("hdf5"),
            payload_nbytes=90 * 10**6,
            complexity=0.48,
        )

    def test_weak_scaling_energy_grows_with_cores(self, campaign):
        e = [
            campaign.run(c, "sz3", 1e-3, compression_ratio=20.0).total_energy_j
            for c in (16, 64, 256)
        ]
        assert e[0] < e[1] < e[2]

    def test_uncompressed_baseline_jumps_under_contention(self, campaign):
        results = {c: campaign.run(c, None) for c in (64, 256, 512)}
        t64 = results[64].write_time_s
        t512 = results[512].write_time_s
        assert t512 > 4 * t64  # saturation: time grows superlinearly in load

    def test_compression_wins_at_scale_not_small(self, campaign):
        """The Fig. 12 crossover: EBLC beats original at 512 cores only."""
        small_orig = campaign.run(16, None).total_energy_j
        small_sz3 = campaign.run(16, "sz3", 1e-3, 20.0).total_energy_j
        big_orig = campaign.run(512, None).total_energy_j
        big_sz3 = campaign.run(512, "sz3", 1e-3, 20.0).total_energy_j
        assert small_sz3 > small_orig
        assert big_sz3 < big_orig

    def test_compression_dominates_write_for_eblc(self, campaign):
        r = campaign.run(256, "sz3", 1e-3, 20.0)
        assert r.compress_energy_j > r.write_energy_j

    def test_topology(self, campaign):
        r = campaign.run(512, None)
        assert r.nodes == 11 and r.ranks_per_node == 48
        assert r.n_ranks == 512  # 10 full nodes + a partial 32-rank node

    @pytest.mark.parametrize("cores", [16, 48, 96, 100, 512])
    def test_simulated_ranks_match_request(self, campaign, cores):
        """The seed rounded non-multiples up to nodes*rpn (100 -> 144 ranks on
        the 48-core plat8160); the partial-node topology simulates exactly
        what was asked for."""
        r = campaign.run(cores, "sz3", 1e-3, compression_ratio=10.0)
        assert r.n_ranks == cores
        assert r.written_bytes_total == r.bytes_per_rank * cores
        expected_nodes = -(-cores // min(cores, 48))
        assert r.nodes == expected_nodes

    @pytest.mark.parametrize("run_name", ["run"])
    def test_partial_node_energy_between_neighbours(self, campaign, run_name):
        """E(96 ranks) < E(100 ranks) < E(144 ranks): a 4-rank partial node
        costs more than nothing and far less than a full extra node."""
        runner = getattr(campaign, run_name)
        e96 = runner(96, "sz3", 1e-3, 10.0).total_energy_j
        e100 = runner(100, "sz3", 1e-3, 10.0).total_energy_j
        e144 = runner(144, "sz3", 1e-3, 10.0).total_energy_j
        assert e96 < e100 < e144

    def test_divisible_totals_unchanged_by_partial_node_path(self, campaign):
        """A divisible request is one full-node measurement scaled: doubling
        the node count at fixed rpn doubles compression energy exactly."""
        r1 = campaign.run(48, "sz3", 1e-3, 10.0)
        r2 = campaign.run(96, "sz3", 1e-3, 10.0)
        assert r2.compress_energy_j == pytest.approx(
            2 * r1.compress_energy_j, rel=1e-12
        )

    def test_bytes_accounting(self, campaign):
        r = campaign.run(32, "sz3", 1e-3, compression_ratio=10.0)
        assert r.bytes_per_rank == 9 * 10**6
        assert r.written_bytes_total == r.bytes_per_rank * 32

    def test_validation(self, campaign):
        with pytest.raises(ConfigurationError):
            campaign.run(0, None)
        with pytest.raises(ConfigurationError):
            campaign.run(16, "sz3", 1e-3, compression_ratio=0.0)
        with pytest.raises(ConfigurationError):
            MultiNodeCampaign(
                cpu=get_cpu("plat8160"),
                pfs=PFSModel(),
                io_library=get_io_library("hdf5"),
                payload_nbytes=0,
            )
