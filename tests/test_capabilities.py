"""Reference-toolchain capability matrix (paper Section IV-C notes)."""

import pytest

from repro.compressors.capabilities import (
    REFERENCE_LIMITATIONS,
    supported,
    unsupported_reason,
)
from repro.core.experiments import Testbed


class TestMatrix:
    def test_paper_stated_limitations(self):
        assert not supported("qoz", 1, "serial")
        assert not supported("sz2", 1, "openmp")
        assert not supported("sz2", 4, "openmp")
        # SZ2 serial handles everything; SZ3 has no stated limits.
        assert supported("sz2", 1, "serial")
        assert supported("sz2", 4, "serial")
        for ndim in (1, 2, 3, 4):
            assert supported("sz3", ndim, "openmp")

    def test_reasons_given(self):
        assert "1D" in unsupported_reason("qoz", 1)
        assert unsupported_reason("sz3", 3) is None

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            supported("sz2", 3, "gpu")
        with pytest.raises(ValueError):
            unsupported_reason("sz2", 3, "cuda")

    def test_our_implementations_do_not_share_them(self):
        """Every limited combination works in this package (1-D QoZ etc.)."""
        import numpy as np

        from repro import compress, decompress
        from repro.metrics import check_error_bound

        data = np.cumsum(np.random.default_rng(0).standard_normal(500)).astype(
            np.float32
        )
        for codec, ndim, mode in REFERENCE_LIMITATIONS:
            if ndim != 1:
                continue
            buf = compress(data, codec, 1e-3)
            check_error_bound(data, decompress(buf), 1e-3)


class TestFidelityMode:
    def test_thread_sweep_drops_unsupported_combos(self):
        tb = Testbed(scale="tiny", sample_interval=0.05)
        pts = tb.run_sweep(
            "thread",
            datasets=("hacc",),  # 1-D
            codecs=("sz2", "qoz", "sz3"),
            threads=(1,),
            paper_fidelity=True,
        )
        codecs = {p.codec for p in pts}
        assert codecs == {"sz3"}  # sz2 (1-D openmp) and qoz (1-D) dropped

    def test_default_keeps_everything(self):
        tb = Testbed(scale="tiny", sample_interval=0.05)
        pts = tb.run_sweep(
            "thread", datasets=("hacc",), codecs=("sz2", "qoz"), threads=(1,)
        )
        assert {p.codec for p in pts} == {"sz2", "qoz"}

    def test_empty_fidelity_grid_names_every_reason(self):
        """A sweep that fidelity filtering empties entirely is a config
        error naming each capability reason, not a silent zero-point run."""
        from repro.errors import ConfigurationError
        from repro.runtime.spec import SweepSpec

        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec(
                kind="thread",
                datasets=("hacc",),  # 1-D
                codecs=("sz2", "qoz"),
                threads=(1,),
                paper_fidelity=True,
            )
        msg = str(excinfo.value)
        assert unsupported_reason("sz2", 1, "openmp") in msg
        assert unsupported_reason("qoz", 1, "openmp") in msg

    def test_partial_fidelity_drop_stays_silent(self):
        from repro.runtime.spec import SweepSpec

        spec = SweepSpec(
            kind="thread",
            datasets=("hacc",),
            codecs=("sz2", "sz3"),
            threads=(1,),
            paper_fidelity=True,
        )
        assert {p.as_kwargs()["codec"] for p in spec.points()} == {"sz3"}
