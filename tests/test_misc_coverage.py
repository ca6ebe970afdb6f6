"""Edge-path coverage: errors, report bars, framing corners, topology."""

import numpy as np
import pytest

from repro import compress, decompress
from repro.cluster import MultiNodeCampaign
from repro.core.report import format_stacked_bars, si
from repro.energy import get_cpu
from repro.errors import (
    CompressionError,
    ConfigurationError,
    DecompressionError,
    ErrorBoundViolation,
    ReproError,
)
from repro.iolib import PFSModel, get_io_library


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (CompressionError, DecompressionError, ConfigurationError):
            assert issubclass(exc, ReproError)
        assert issubclass(ErrorBoundViolation, CompressionError)

    def test_bound_violation_carries_numbers(self):
        e = ErrorBoundViolation(0.5, 0.1)
        assert e.max_error == 0.5 and e.bound == 0.1
        assert "0.5" in str(e)

    def test_custom_message(self):
        e = ErrorBoundViolation(1.0, 0.5, "custom")
        assert str(e) == "custom"


class TestReportEdges:
    def test_si_negative_values(self):
        assert si(-2500.0, "J").startswith("-2.5")

    def test_si_tiny_values(self):
        assert si(0.5, "J") == "0.5 J"

    def test_stacked_bars_zero_total(self):
        out = format_stacked_bars("T", "x", [("a", 0.0, 0.0)])
        assert "a" in out  # no division-by-zero


class TestFramingCorners:
    def test_1d_single_element(self):
        data = np.array([3.5], dtype=np.float64)
        for codec in ("sz2", "sz3", "zfp", "szx"):
            rec = decompress(compress(data, codec, 1e-2))
            np.testing.assert_allclose(rec, data, atol=1e-12)

    def test_negative_only_data(self):
        data = -np.abs(np.random.default_rng(1).standard_normal((9, 9))) - 5.0
        for codec in ("sz3", "zfp", "szx"):
            buf = compress(data, codec, 1e-3)
            rec = decompress(buf)
            rng = data.max() - data.min()
            assert np.abs(rec - data).max() <= 1e-3 * rng * (1 + 1e-9)

    def test_tiny_bound_still_honoured(self):
        data = np.random.default_rng(2).uniform(0, 1, 500).astype(np.float32)
        buf = compress(data, "sz3", 1e-7)
        rec = decompress(buf)
        rng = float(data.max() - data.min())
        assert np.abs(rec.astype(np.float64) - data).max() <= 1e-7 * rng + 2**-22

    def test_bound_of_exactly_one(self):
        data = np.random.default_rng(3).standard_normal(300)
        buf = compress(data, "szx", 1.0)
        rec = decompress(buf)
        rng = data.max() - data.min()
        assert np.abs(rec - data).max() <= rng


class TestCampaignTopology:
    def test_partial_node_fill(self):
        campaign = MultiNodeCampaign(
            cpu=get_cpu("plat8160"),
            pfs=PFSModel(),
            io_library=get_io_library("hdf5"),
            payload_nbytes=10**7,
        )
        r = campaign.run(20, None)  # fewer cores than one node has
        assert r.nodes == 1 and r.ranks_per_node == 20
        r = campaign.run(100, None)  # 48 + 48 + 4 -> 3 nodes at 48 rpn sizing
        assert r.nodes == 3

    def test_single_core(self):
        campaign = MultiNodeCampaign(
            cpu=get_cpu("plat8160"),
            pfs=PFSModel(),
            io_library=get_io_library("hdf5"),
            payload_nbytes=10**7,
        )
        r = campaign.run(1, "szx", 1e-3, compression_ratio=4.0)
        assert r.total_energy_j > 0
        assert r.written_bytes_total == 25 * 10**5


class TestNetCDFArrayKinds:
    def test_float64_roundtrip(self, rng):
        lib = get_io_library("netcdf")
        data = {"rho": rng.standard_normal((4, 5, 6))}
        out, _ = lib.unpack(lib.pack(data))
        np.testing.assert_array_equal(out["rho"], data["rho"])
        assert out["rho"].dtype == np.float64

    def test_many_variables(self, rng):
        lib = get_io_library("netcdf")
        data = {f"v{i}": rng.standard_normal(7).astype(np.float32) for i in range(40)}
        out, _ = lib.unpack(lib.pack(data))
        assert set(out) == set(data)


class TestHostileRunner:
    def test_hang_fails_naming_the_case(self):
        import time

        from hostile import outcomes

        cases = [("quick", 0.0), ("stuck case", 1.0), ("never run", 0.0)]
        seen = []
        with pytest.raises(pytest.fail.Exception, match="stuck case did not return"):
            for label, _, got in outcomes(time.sleep, cases, seconds=0.2):
                seen.append((label, got))
        assert seen == [("quick", None)]

    def test_outcome_is_the_return_value_or_the_exception(self):
        from hostile import outcome

        assert outcome(lambda: 7) == 7
        assert isinstance(outcome(lambda: 1 / 0), ZeroDivisionError)
