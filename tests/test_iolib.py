"""I/O stack: container roundtrips, PFS fair sharing, cost calibration."""

import warnings

import numpy as np
import pytest

from repro.iolib import (
    HDF5Like,
    NetCDFLike,
    PFSModel,
    fair_share_schedule,
    get_io_library,
)
from repro.iolib.devices import DEVICES, get_device
from repro.errors import ConfigurationError, IOModelError

from reference.iolib import reference_fair_share_schedule


class TestContainers:
    @pytest.mark.parametrize("libname", ["hdf5", "netcdf"])
    def test_array_roundtrip(self, libname, rng):
        lib = get_io_library(libname)
        arrays = {
            "temp": rng.standard_normal((5, 7)).astype(np.float32),
            "rho": rng.standard_normal((3, 4, 5)),
        }
        attrs = {"source": "unit-test", "version": "1"}
        blob = lib.pack(arrays, attrs)
        out, out_attrs = lib.unpack(blob)
        assert out_attrs == attrs
        for k in arrays:
            np.testing.assert_array_equal(out[k], arrays[k])
            assert out[k].dtype == arrays[k].dtype

    @pytest.mark.parametrize("libname", ["hdf5", "netcdf"])
    def test_opaque_bytes_roundtrip(self, libname):
        lib = get_io_library(libname)
        payload = bytes(range(256)) * 3
        blob = lib.pack({"compressed": payload})
        out, _ = lib.unpack(blob)
        assert out["compressed"] == payload

    @pytest.mark.parametrize("libname", ["hdf5", "netcdf"])
    def test_file_roundtrip(self, libname, tmp_path, rng):
        lib = get_io_library(libname)
        data = {"x": rng.standard_normal(100).astype(np.float32)}
        n = lib.write_file(tmp_path / "out.bin", data)
        assert n == (tmp_path / "out.bin").stat().st_size
        out, _ = lib.read_file(tmp_path / "out.bin")
        np.testing.assert_array_equal(out["x"], data["x"])

    def test_hdf5_checksum_detects_corruption(self, rng):
        lib = HDF5Like()
        blob = bytearray(lib.pack({"x": rng.standard_normal(64)}))
        blob[-5] ^= 0xFF
        with pytest.raises(IOModelError):
            lib.unpack(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(IOModelError):
            HDF5Like().unpack(b"garbage" * 4)
        with pytest.raises(IOModelError):
            NetCDFLike().unpack(b"garbage" * 4)

    @pytest.mark.parametrize("libname", ["hdf5", "netcdf"])
    def test_every_truncation_is_typed(self, libname, rng):
        lib = get_io_library(libname)
        blob = lib.pack(
            {"rho": rng.standard_normal((3, 4)), "stream": bytes(range(40))},
            {"unit": "kg/m^3"},
        )
        for cut in range(len(blob)):
            with pytest.raises(IOModelError):
                lib.unpack(blob[:cut])

    def test_netcdf_bad_typecode_and_shape(self):
        lib = NetCDFLike()
        blob = lib.pack({"x": np.zeros((2, 3), dtype=np.float32)})
        at = blob.index(b"\x01\x00x") + 3  # typecode after the name
        assert blob[at : at + 1] == b"f"
        with pytest.raises(IOModelError, match="KeyError"):
            lib.unpack(blob[:at] + b"F" + blob[at + 1 :])
        # Shape (2, 3) -> (2, 7): the 24 data bytes no longer fill it.
        with pytest.raises(IOModelError, match="ValueError"):
            lib.unpack(blob[: at + 6] + b"\x07" + blob[at + 7 :])

    def test_hdf5_bad_utf8_name(self):
        blob = bytearray(HDF5Like().pack({"x": b"abc"}))
        blob[blob.index(b"\x01\x00x") + 2] = 0xFF
        with pytest.raises(IOModelError, match="UnicodeDecodeError"):
            HDF5Like().unpack(bytes(blob))

    def test_netcdf_is_big_endian_on_disk(self):
        """The classic-format byte swap: the RNC payload differs from memory."""
        data = np.array([1.0, 2.0], dtype=np.float32)
        blob = NetCDFLike().pack({"v": data})
        assert data.tobytes() not in blob  # little-endian bytes absent
        assert data.astype(">f4").tobytes() in blob

    def test_cost_models_ordered(self):
        """HDF5 must be the efficient library on every axis (paper VI-A)."""
        h, n = HDF5Like.cost, NetCDFLike.cost
        assert h.serialize_mbps > n.serialize_mbps
        assert h.bandwidth_efficiency > n.bandwidth_efficiency
        assert h.open_latency_s < n.open_latency_s

    def test_unknown_library(self):
        with pytest.raises(KeyError):
            get_io_library("adios")


class TestFairShare:
    def test_single_flow_rate(self):
        finish = fair_share_schedule(
            np.array([0.0]), np.array([1e9]), 1000.0, 8000.0
        )
        assert finish[0] == pytest.approx(1.0)  # 1 GB at 1 GB/s

    def test_contended_flows_share_aggregate(self):
        n = 16
        finish = fair_share_schedule(
            np.zeros(n), np.full(n, 1e9), 1000.0, 4000.0
        )
        # 16 GB through 4 GB/s = 4 s for everyone (equal shares).
        np.testing.assert_allclose(finish, 4.0, rtol=1e-6)

    def test_uncontended_flows_use_own_cap(self):
        n = 2
        finish = fair_share_schedule(np.zeros(n), np.full(n, 1e9), 1000.0, 8000.0)
        np.testing.assert_allclose(finish, 1.0, rtol=1e-6)

    def test_staggered_arrivals(self):
        finish = fair_share_schedule(
            np.array([0.0, 10.0]), np.array([1e9, 1e9]), 1000.0, 8000.0
        )
        assert finish[0] == pytest.approx(1.0)
        assert finish[1] == pytest.approx(11.0)

    def test_early_finisher_frees_bandwidth(self):
        finish = fair_share_schedule(
            np.zeros(2), np.array([1e8, 1e9]), 1000.0, 1000.0
        )
        # Phase 1: both at 500 MB/s until small flow done at t=0.2.
        assert finish[0] == pytest.approx(0.2)
        # Large flow: 100 MB left of 1000 after phase 1 -> 0.2 + 0.9 s.
        assert finish[1] == pytest.approx(1.1)

    def test_work_conservation(self):
        """Total bytes / makespan never exceeds the aggregate cap."""
        r = np.random.default_rng(2)
        sizes = r.uniform(1e8, 1e9, 20)
        finish = fair_share_schedule(np.zeros(20), sizes, 800.0, 3000.0)
        makespan = finish.max()
        assert sizes.sum() / 1e6 / makespan <= 3000.0 * (1 + 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fair_share_schedule(np.zeros(2), np.zeros(3), 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            fair_share_schedule(np.zeros(1), np.ones(1), 0.0, 1.0)

    @pytest.mark.parametrize(
        "arrivals, sizes, caps, match",
        [
            (np.zeros((2, 2)), np.ones((2, 2)), (1.0, 1.0), "1-D"),
            (np.float64(0.0), np.float64(1.0), (1.0, 1.0), "1-D"),
            (np.array([0.0, np.nan]), np.ones(2), (1.0, 1.0), "finite"),
            (np.array([0.0, np.inf]), np.ones(2), (1.0, 1.0), "finite"),
            (np.array([-np.inf, 0.0]), np.ones(2), (1.0, 1.0), "finite"),
            (np.zeros(2), np.array([1.0, np.nan]), (1.0, 1.0), "finite"),
            (np.zeros(2), np.array([np.inf, 1.0]), (1.0, 1.0), "finite"),
            (np.zeros(2), np.array([1e6, -1.0]), (1.0, 1.0), "non-negative"),
            (np.zeros(1), np.ones(1), (np.inf, 1.0), "finite"),
            (np.zeros(1), np.ones(1), (1.0, np.inf), "finite"),
            (np.zeros(1), np.ones(1), (np.nan, 1.0), "finite"),
            (np.zeros(1), np.ones(1), (1.0, -2.0), "positive"),
        ],
    )
    def test_bad_inputs_raise_typed_before_solving(self, arrivals, sizes, caps, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ConfigurationError, match=match):
                fair_share_schedule(arrivals, sizes, *caps)

    def test_empty_input(self):
        finish = fair_share_schedule(np.zeros(0), np.zeros(0), 1.0, 1.0)
        assert finish.shape == (0,) and finish.dtype == np.float64

    def test_tenant_runs_share_one_finish(self):
        """Two tenants of equal rank flows: each run finishes together, and
        the 300 flows divide the aggregate as 300 flows, not as 2 classes."""
        arrivals = np.repeat([0.0, 1.0], [100, 200])
        sizes = np.repeat([1e8, 5e7], [100, 200])
        finish = fair_share_schedule(arrivals, sizes, 100.0, 1000.0)
        assert len(set(finish[:100].tolist())) == 1
        assert len(set(finish[100:].tolist())) == 1
        # t < 1: 100 flows at 10 MB/s each move 10 of 100 MB.  Then 300
        # flows at 3.33 MB/s: the 50 MB flows finish first, at 1 + 15 s,
        # the first tenant moving 50 more; 40 MB left at 10 MB/s.
        assert finish[100] == pytest.approx(16.0)
        assert finish[0] == pytest.approx(20.0)
        np.testing.assert_array_equal(
            finish, reference_fair_share_schedule(arrivals, sizes, 100.0, 1000.0)
        )

    def test_unsorted_arrivals_equal_sorted(self):
        """Flow order in the input arrays must not matter: the schedule of a
        shuffled instance is the same permutation of the sorted one."""
        rng = np.random.default_rng(7)
        arrivals = np.array([3.0, 0.0, 1.5, 0.5, 2.0, 1.5])
        sizes = np.array([2e8, 5e8, 1e8, 3e8, 4e8, 1e8])
        base = fair_share_schedule(arrivals, sizes, 500.0, 1200.0)
        perm = rng.permutation(arrivals.size)
        shuffled = fair_share_schedule(arrivals[perm], sizes[perm], 500.0, 1200.0)
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)

    def test_duplicate_arrivals_share_fairly(self):
        """Ties in arrival time admit together and split the aggregate."""
        finish = fair_share_schedule(
            np.array([1.0, 1.0, 1.0, 1.0]), np.full(4, 1e9), 1000.0, 2000.0
        )
        # 4 GB through 2 GB/s, all admitted at t=1: done at t=3 together.
        np.testing.assert_allclose(finish, 3.0, rtol=1e-6)

    def test_duplicate_arrivals_with_zero_byte_flows(self):
        finish = fair_share_schedule(
            np.array([2.0, 2.0, 2.0]), np.array([0.0, 1e9, 0.0]), 1000.0, 8000.0
        )
        assert finish[0] == finish[2] == 2.0
        assert finish[1] == pytest.approx(3.0)

    def test_zero_byte_flows_complete_at_arrival(self):
        """Empty flows used to burn solver iterations; now they are free."""
        arrivals = np.array([0.0, 1.0, 2.5])
        finish = fair_share_schedule(arrivals, np.zeros(3), 100.0, 800.0)
        np.testing.assert_allclose(finish, arrivals)

    def test_zero_byte_flow_does_not_perturb_real_flows(self):
        finish = fair_share_schedule(
            np.array([0.0, 0.5]), np.array([1e8, 0.0]), 100.0, 800.0
        )
        assert finish[0] == pytest.approx(1.0)  # 100 MB at 100 MB/s, alone
        assert finish[1] == pytest.approx(0.5)  # done the instant it arrives

    def test_many_staggered_zero_flows_stay_within_guard(self):
        n = 500
        arrivals = np.linspace(0.0, 1.0, n)
        finish = fair_share_schedule(arrivals, np.zeros(n), 100.0, 800.0)
        np.testing.assert_allclose(finish, arrivals)

    def test_completion_coincident_with_arrival(self):
        """A completion landing exactly on an arrival is one clean step."""
        finish = fair_share_schedule(
            np.array([0.0, 1.0]), np.array([1e8, 1e8]), 100.0, 100.0
        )
        assert finish[0] == pytest.approx(1.0)
        assert finish[1] == pytest.approx(2.0)

    def test_zero_flows_mixed_with_coincident_events(self):
        finish = fair_share_schedule(
            np.array([0.0, 1.0, 1.0]),
            np.array([1e8, 0.0, 1e8]),
            100.0,
            100.0,
        )
        assert finish[0] == pytest.approx(1.0)
        assert finish[1] == pytest.approx(1.0)
        assert finish[2] == pytest.approx(2.0)

    def test_all_flows_empty_terminates(self):
        finish = fair_share_schedule(np.zeros(4), np.zeros(4), 10.0, 10.0)
        np.testing.assert_allclose(finish, 0.0)


class TestPFSModel:
    def test_aggregate_and_stream_bw(self):
        pfs = PFSModel(n_osts=8, ost_bw_mbps=500, stripe_count=4, client_bw_mbps=1000)
        assert pfs.aggregate_bw_mbps == 4000
        assert pfs.stream_bw_mbps == 1000  # client link binds

    def test_stripe_binds_when_narrow(self):
        pfs = PFSModel(n_osts=8, ost_bw_mbps=100, stripe_count=2, client_bw_mbps=1000)
        assert pfs.stream_bw_mbps == 200

    def test_single_write_seconds(self):
        pfs = PFSModel(metadata_latency_s=0.01)
        t = pfs.single_write_seconds(10**9)
        assert t == pytest.approx(0.01 + 1000 / pfs.stream_bw_mbps)

    def test_concurrent_saturation(self):
        pfs = PFSModel(n_osts=4, ost_bw_mbps=500, stripe_count=4, client_bw_mbps=1000)
        sizes = np.full(64, 1e9)
        finish = pfs.concurrent_write_times(sizes)
        # 64 GB through 2 GB/s aggregate = 32 s.
        assert finish.max() == pytest.approx(32.0, rel=0.01)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            PFSModel(stripe_count=20, n_osts=8)
        with pytest.raises(ConfigurationError):
            PFSModel(ost_bw_mbps=-1)


class TestDevices:
    def test_catalogue(self):
        assert set(DEVICES) == {"hdd-18tb", "ssd-15tb"}
        ssd = get_device("ssd-15tb")
        assert ssd.rack_embodied_fraction == pytest.approx(0.80)
        hdd = get_device("hdd-18tb")
        assert hdd.rack_embodied_fraction == pytest.approx(0.41)

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_device("tape")


# -- property battery: the vectorized fair-share solver -----------------------
#
# Hypothesis drives the solver with adversarial staggered multi-tenant
# arrival patterns.  Two invariants are the contract the cluster scheduler
# leans on: (1) byte conservation — an independent piecewise replay of the
# max-min fluid model moves exactly each flow's bytes by its reported
# finish; (2) completion-order invariance — with equal sizes, a flow that
# arrives earlier never finishes later, and identical (arrival, size)
# twins finish at the same instant.

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def _fair_share_cases(draw):
    n = draw(st.integers(1, 10))
    arrivals = np.array(
        [
            draw(st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False))
            for _ in range(n)
        ]
    )
    sizes_mb = np.array(
        [
            draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.1, 2000.0, allow_nan=False, allow_infinity=False),
                )
            )
            for _ in range(n)
        ]
    )
    per_flow = draw(st.floats(50.0, 1500.0, allow_nan=False))
    aggregate = draw(st.floats(100.0, 6000.0, allow_nan=False))
    return arrivals, sizes_mb, per_flow, aggregate


def _replay_transferred(arrivals, sizes_mb, finishes, per_flow, aggregate):
    """Independent piecewise integration of the max-min fluid model.

    Walks the solver's own breakpoints (arrivals and completions) and, in
    each interval, credits every in-flight flow ``min(per_flow,
    aggregate / n_active)`` MB/s — the textbook rate, computed without any
    of the solver's internal bookkeeping.
    """
    events = np.unique(np.concatenate([arrivals, finishes]))
    moved = np.zeros_like(sizes_mb)
    for t0, t1 in zip(events[:-1], events[1:]):
        mid = 0.5 * (t0 + t1)
        active = (arrivals <= mid) & (finishes > mid) & (sizes_mb > 0)
        n_active = int(active.sum())
        if n_active:
            rate = min(per_flow, aggregate / n_active)
            moved[active] += rate * (t1 - t0)
    return moved


class TestFairShareProperties:
    @settings(max_examples=80, deadline=None)
    @given(_fair_share_cases())
    def test_bytes_conserved_under_staggered_arrivals(self, case):
        arrivals, sizes_mb, per_flow, aggregate = case
        finish = fair_share_schedule(arrivals, sizes_mb * 1e6, per_flow, aggregate)
        assert np.all(finish >= arrivals - 1e-9)
        moved = _replay_transferred(arrivals, sizes_mb, finish, per_flow, aggregate)
        np.testing.assert_allclose(moved, sizes_mb, rtol=1e-6, atol=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(_fair_share_cases())
    def test_equal_sizes_finish_in_arrival_order(self, case):
        arrivals, _, per_flow, aggregate = case
        sizes = np.full(arrivals.size, 500e6)
        finish = fair_share_schedule(arrivals, sizes, per_flow, aggregate)
        order = np.argsort(arrivals, kind="stable")
        assert np.all(np.diff(finish[order]) >= -1e-9)

    @settings(max_examples=80, deadline=None)
    @given(_fair_share_cases(), st.integers(0, 9))
    def test_identical_twins_finish_together(self, case, pick):
        arrivals, sizes_mb, per_flow, aggregate = case
        i = pick % arrivals.size
        twin_arrivals = np.append(arrivals, arrivals[i])
        twin_sizes = np.append(sizes_mb, sizes_mb[i])
        finish = fair_share_schedule(
            twin_arrivals, twin_sizes * 1e6, per_flow, aggregate
        )
        assert finish[i] == pytest.approx(finish[-1], rel=1e-12, abs=1e-12)


# -- flow classes: bit-identity against the per-flow reference solver --------
#
# ``fair_share_schedule`` solves one entry per flow class, weighted by its
# flow count.  The per-flow solver it replaced is the reference
# (``reference.iolib``); the class solver must return its finish times bit for bit,
# both on per-flow input (runs of identical flows, the cluster's tenants,
# shuffled so runs break apart) and on class input against the expansion of
# each class into its flows, with zero-byte flows and with completions
# landing exactly on arrivals.


@st.composite
def _flow_run_cases(draw):
    """Runs of identical flows, optionally shuffled.

    On the exact grid (half-second arrivals, 50 MB multiples, power-of-two
    caps) completions land exactly on later arrivals; off it, arrivals and
    sizes are arbitrary floats.
    """
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        arrivals = [draw(st.integers(0, 8)) * 0.5 for _ in range(k)]
        sizes_mb = [draw(st.integers(0, 4)) * 50.0 for _ in range(k)]
        per_flow = draw(st.sampled_from([25.0, 50.0, 100.0, 200.0]))
        aggregate = draw(st.sampled_from([100.0, 200.0, 400.0, 800.0]))
    else:
        arrivals = [draw(st.floats(0.0, 60.0)) for _ in range(k)]
        sizes_mb = [
            draw(st.one_of(st.just(0.0), st.floats(0.1, 2000.0)))
            for _ in range(k)
        ]
        per_flow = draw(st.floats(50.0, 1500.0))
        aggregate = draw(st.floats(100.0, 6000.0))
    runs = [draw(st.integers(1, 12)) for _ in range(k)]
    arrivals = np.repeat(arrivals, runs)
    sizes = np.repeat(sizes_mb, runs) * 1e6
    if draw(st.booleans()):
        perm = np.array(draw(st.permutations(range(arrivals.size))))
        arrivals, sizes = arrivals[perm], sizes[perm]
    return arrivals, sizes, per_flow, aggregate


@st.composite
def _flow_class_cases(draw):
    """Flow classes with their counts: ``(arrivals, sizes, caps..., counts)``.

    Arrivals on the exact grid (with ``-0.0`` next to ``0.0``) or arbitrary
    floats, zero-byte classes, counts of one, and neighbours that repeat
    the previous class's arrival.
    """
    k = draw(st.integers(1, 8))
    grid = draw(st.booleans())
    if grid:
        arrival = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        size_mb = st.integers(0, 4).map(lambda x: x * 50.0)
        per_flow = draw(st.sampled_from([25.0, 50.0, 100.0, 200.0]))
        aggregate = draw(st.sampled_from([100.0, 200.0, 400.0, 800.0]))
    else:
        arrival = st.one_of(st.just(-0.0), st.floats(0.0, 60.0))
        size_mb = st.one_of(st.just(0.0), st.floats(0.1, 2000.0))
        per_flow = draw(st.floats(50.0, 1500.0))
        aggregate = draw(st.floats(100.0, 6000.0))
    arrivals, sizes_mb = [], []
    for i in range(k):
        repeat = i > 0 and draw(st.booleans())
        arrivals.append(arrivals[-1] if repeat else draw(arrival))
        sizes_mb.append(draw(size_mb))
    counts = [draw(st.one_of(st.just(1), st.integers(1, 12))) for _ in range(k)]
    return (np.array(arrivals), np.array(sizes_mb) * 1e6, per_flow, aggregate,
            np.array(counts))


class TestFairShareClasses:
    @settings(max_examples=300, deadline=None)
    @given(_flow_class_cases())
    def test_class_counts_equal_per_flow_expansion(self, case):
        arrivals, sizes, per_flow, aggregate, counts = case
        finish = fair_share_schedule(arrivals, sizes, per_flow, aggregate, counts)
        expected = reference_fair_share_schedule(
            np.repeat(arrivals, counts), np.repeat(sizes, counts),
            per_flow, aggregate,
        )
        assert finish.shape == arrivals.shape
        assert np.repeat(finish, counts).tobytes() == expected.tobytes()

    def test_counts_divide_the_aggregate_as_flows(self):
        # Two classes of 100 and 200 flows: the same finish times as
        # ``test_tenant_runs_share_one_finish`` solves from 300 flows.
        finish = fair_share_schedule(
            np.array([0.0, 1.0]), np.array([1e8, 5e7]), 100.0, 1000.0,
            counts=np.array([100, 200]),
        )
        assert finish[1] == pytest.approx(16.0)
        assert finish[0] == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "counts, match",
        [
            (np.ones((2, 1), dtype=int), "1-D"),
            (np.int64(2), "1-D"),
            (np.ones(3, dtype=int), "align"),
            (np.ones(1, dtype=int), "align"),
            (np.array([1.0, 2.0]), "integers"),
            (np.array([1.5, 2.0]), "integers"),
            (np.array([True, True]), "integers"),
            (np.array(["1", "2"]), "integers"),
            (np.array([1, 0]), ">= 1"),
            (np.array([-3, 2]), ">= 1"),
        ],
    )
    def test_bad_counts_raise_typed(self, counts, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=match):
                fair_share_schedule(np.zeros(2), np.ones(2), 1.0, 1.0, counts)

    @settings(max_examples=300, deadline=None)
    @given(_flow_run_cases())
    def test_class_solver_equals_per_flow_reference(self, case):
        finish = fair_share_schedule(*case)
        expected = reference_fair_share_schedule(*case)
        assert finish.dtype == expected.dtype
        assert finish.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(_fair_share_cases())
    def test_distinct_flows_equal_per_flow_reference(self, case):
        arrivals, sizes_mb, per_flow, aggregate = case
        args = (arrivals, sizes_mb * 1e6, per_flow, aggregate)
        assert (fair_share_schedule(*args).tobytes()
                == reference_fair_share_schedule(*args).tobytes())

    def test_completion_coincides_with_next_tenant_arrival(self):
        # Tenant a's 4 flows of 50 MB drain at 200 MB/s in exactly 1 s, the
        # instant tenant b's 8 flows arrive; b then has the link alone.
        arrivals = np.repeat([0.0, 1.0], [4, 8])
        sizes = np.repeat([5e7, 2.5e7], [4, 8])
        finish = fair_share_schedule(arrivals, sizes, 100.0, 200.0)
        np.testing.assert_array_equal(finish, np.repeat([1.0, 2.0], [4, 8]))
        assert finish.tobytes() == reference_fair_share_schedule(
            arrivals, sizes, 100.0, 200.0
        ).tobytes()

    def test_negative_zero_arrival_keeps_its_sign(self):
        # A zero-byte flow finishes at its own arrival's bits, so one
        # arriving at -0.0 finishes at -0.0 as in the per-flow solve.
        arrivals = np.array([0.0, -0.0, -0.0])
        finish = fair_share_schedule(arrivals, np.zeros(3), 1.0, 1.0)
        assert finish.tobytes() == arrivals.tobytes()


# -- closed-form drains -------------------------------------------------------
#
# Where the fluid model has a closed form, the solver must meet it within
# DRAIN_RTOL (documented in docs/user-guide/pipeline.md).  With per-flow cap
# = aggregate cap = B the link is one work-conserving server of rate B, so
# the last flow finishes at max_k(A_k + sum_{i>=k} s_i / B) over the flows
# in arrival order; n equal flows arriving together, each capped above
# B/n, share B evenly and all finish at A + n*s/B.

#: Relative tolerance of the closed-form drain checks; the solver's float
#: walk stays within about 1.4e-15 of them.
DRAIN_RTOL = 1e-12


def _single_server_makespan(arrivals, sizes_bytes, bandwidth_mbps):
    order = np.argsort(arrivals, kind="stable")
    drain = np.asarray(sizes_bytes, dtype=np.float64)[order] / 1e6 / bandwidth_mbps
    return float(np.max(np.asarray(arrivals)[order] + np.cumsum(drain[::-1])[::-1]))


@st.composite
def _single_server_cases(draw):
    n = draw(st.integers(1, 39))
    arrival = st.one_of(st.integers(0, 20).map(float),
                        st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False))
    size_mb = st.one_of(st.just(0.0), st.floats(0.1, 2000.0))
    arrivals = np.array([draw(arrival) for _ in range(n)])
    sizes = np.array([draw(size_mb) for _ in range(n)]) * 1e6
    return arrivals, sizes, draw(st.floats(50.0, 6000.0))


class TestDrainClosedForms:
    @settings(max_examples=150, deadline=None)
    @given(_single_server_cases())
    def test_one_cap_drains_as_a_single_server(self, case):
        arrivals, sizes, bandwidth = case
        finish = fair_share_schedule(arrivals, sizes, bandwidth, bandwidth)
        assert float(finish.max()) == pytest.approx(
            _single_server_makespan(arrivals, sizes, bandwidth), rel=DRAIN_RTOL
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**9),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        st.sampled_from(["hdf5", "netcdf"]),
        st.floats(0.5, 2.0),
        st.integers(1, 39),
    )
    def test_pipelined_write_drains_as_a_single_server(
        self, out_nbytes, compress_s, library, cpu_speed, n_chunks
    ):
        from repro.iolib.pipeline import plan_pipelined_write

        pfs, cost = PFSModel(), get_io_library(library).cost
        plan = plan_pipelined_write(out_nbytes, compress_s, pfs, cost, cpu_speed, n_chunks)
        bandwidth = pfs.stream_bw_mbps * cost.bandwidth_efficiency
        assert max(plan.write_finish) == pytest.approx(
            _single_server_makespan(plan.write_arrival, plan.chunk_bytes, bandwidth),
            rel=DRAIN_RTOL,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 39),
        st.floats(0.0, 60.0),
        st.floats(0.1, 2000.0),
        st.floats(50.0, 6000.0),
        st.floats(1.0 + 1e-9, 10.0),
    )
    def test_equal_flows_share_the_aggregate_evenly(self, n, arrival, size_mb, aggregate,
                                                    headroom):
        per_flow = aggregate / n * headroom
        finish = fair_share_schedule(
            np.full(n, arrival), np.full(n, size_mb * 1e6), per_flow, aggregate
        )
        expected = arrival + n * size_mb / aggregate
        np.testing.assert_allclose(finish, expected, rtol=DRAIN_RTOL, atol=0.0)
