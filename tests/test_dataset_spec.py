"""The compression-spec mini-language: grammar, validation, round-trip.

The hypothesis property is the satellite contract:
``parse(format(s)) == s`` over generated specs — including per-variable
maps and the ``auto`` form — so the canonical wire form is safe to use as
store-key material.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import Advisor, DalyAdvisor, DvfsAdvisor
from repro.core.experiments import Testbed
from repro.core.tradeoff import TradeoffAnalyzer
from repro.dataset.spec import (
    CompressionMap,
    CompressionSpec,
    parse_compression,
    sweep_axes_from_spec,
)
from repro.errors import ConfigurationError


class TestParse:
    def test_lossless_defaults_codec(self):
        s = CompressionSpec.parse("lossless")
        assert s.mode == "lossless" and s.codec == "zstd"
        assert s.bound is None and s.bound_mode is None

    def test_lossless_named_codec(self):
        assert CompressionSpec.parse("lossless,blosc").codec == "blosc"

    def test_lossy_full_form(self):
        s = CompressionSpec.parse("lossy,sz3,abs,1e-3")
        assert (s.mode, s.codec, s.bound_mode, s.bound) == (
            "lossy", "sz3", "abs", 1e-3,
        )

    def test_auto_defaults(self):
        s = CompressionSpec.parse("auto")
        assert s.mode == "auto" and s.codec is None
        assert s.bound_mode == "rel" and s.bound == 1e-3

    def test_auto_explicit_floor(self):
        s = CompressionSpec.parse("auto,rel,1e-4")
        assert s.bound == 1e-4

    def test_whitespace_tolerated(self):
        s = CompressionSpec.parse(" lossy , zfp , rel , 1e-4 ")
        assert s.codec == "zfp" and s.bound == 1e-4

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus",
            "lossy",
            "lossy,sz3",
            "lossy,sz3,rel",
            "lossy,sz3,mid,1e-3",
            "lossy,sz3,rel,zero",
            "lossy,sz3,rel,-1e-3",
            "lossy,sz3,rel,inf",
            "lossy,sz3,rel,nan",
            "lossy,sz3,rel,2.0",  # rel bounds live in (0, 1]
            "auto,rel",
            "auto,abs",
            "lossless,zstd,extra",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            CompressionSpec.parse(bad)

    def test_map_with_default(self):
        m = parse_compression("temp:lossy,sz3,abs,1e-3;vel:lossless;auto")
        assert isinstance(m, CompressionMap)
        assert m.spec_for("temp").codec == "sz3"
        assert m.spec_for("vel").mode == "lossless"
        assert m.spec_for("anything-else").mode == "auto"

    def test_map_without_default_raises_for_unknown(self):
        m = parse_compression("temp:lossless")
        with pytest.raises(ConfigurationError):
            m.spec_for("pressure")

    def test_map_rejects_duplicates_and_two_defaults(self):
        with pytest.raises(ConfigurationError):
            parse_compression("a:lossless;a:auto")
        with pytest.raises(ConfigurationError):
            parse_compression("lossless;auto")

    def test_single_spec_stays_a_spec(self):
        assert isinstance(parse_compression("auto"), CompressionSpec)


class TestValidate:
    def test_unknown_codec_lists_registered(self):
        with pytest.raises(ConfigurationError, match="registered"):
            CompressionSpec.parse("lossy,nope,rel,1e-3").validate()

    def test_lossless_mode_rejects_eblc(self):
        with pytest.raises(ConfigurationError, match="error-bounded"):
            CompressionSpec.parse("lossless,sz3").validate()

    def test_lossy_mode_rejects_lossless_codec(self):
        with pytest.raises(ConfigurationError, match="lossless"):
            CompressionSpec.parse("lossy,zstd,rel,1e-3").validate()

    def test_paper_fidelity_names_capability_reason(self):
        # qoz on 1-D data is outside the paper's measurement matrix; the
        # error must carry capabilities.unsupported_reason() verbatim.
        from repro.compressors.capabilities import unsupported_reason

        reason = unsupported_reason("qoz", 1, "serial")
        with pytest.raises(ConfigurationError, match="measurement matrix"):
            try:
                CompressionSpec.parse("lossy,qoz,rel,1e-3").validate(
                    ndim=1, paper_fidelity=True
                )
            except ConfigurationError as exc:
                assert reason in str(exc)
                raise

    def test_fidelity_off_by_default(self):
        CompressionSpec.parse("lossy,qoz,rel,1e-3").validate(ndim=1)


class TestSemantics:
    def test_rel_bound_for_rel(self):
        assert CompressionSpec.parse("lossy,sz3,rel,1e-3").rel_bound_for(7.0) == 1e-3

    def test_rel_bound_for_abs_divides_by_range(self):
        assert CompressionSpec.parse("lossy,sz3,abs,2.0").rel_bound_for(100.0) == 0.02

    def test_rel_bound_for_abs_clamps_to_one(self):
        assert CompressionSpec.parse("lossy,sz3,abs,5.0").rel_bound_for(2.0) == 1.0

    def test_rel_bound_for_zero_range(self):
        # Constant variables store exactly via the constant fast path.
        assert CompressionSpec.parse("lossy,sz3,abs,1e-3").rel_bound_for(0.0) == 1.0

    def test_lossless_rel_bound_is_zero(self):
        assert CompressionSpec.parse("lossless").rel_bound_for(10.0) == 0.0


class TestGridDerivation:
    def test_lossy_pins_both_axes(self):
        axes = sweep_axes_from_spec(CompressionSpec.parse("lossy,sz3,rel,1e-3"), "serial")
        assert axes == {"codecs": ("sz3",), "bounds": (1e-3,), "rel_bound": 1e-3}

    def test_lossless_only_for_lossless_kind(self):
        spec = CompressionSpec.parse("lossless,blosc")
        assert sweep_axes_from_spec(spec, "lossless") == {
            "codecs": (), "lossless_codecs": ("blosc",),
        }
        with pytest.raises(ConfigurationError):
            sweep_axes_from_spec(spec, "serial")

    def test_abs_bounds_rejected_on_grids(self):
        with pytest.raises(ConfigurationError, match="'dataset' kind"):
            sweep_axes_from_spec(CompressionSpec.parse("lossy,sz3,abs,1e-3"), "io")

    # The advisors narrow their search exactly as a sweep does: each one
    # hands ``compression`` to the SweepSpec it runs.

    def test_advisor_auto_filters_bounds_to_floor(self, advisors, searched):
        for name, advise in advisors.items():
            grids = searched(
                advise,
                compression="auto,rel,1e-3",
                codecs=("sz3", "zfp"),
                bounds=(1e-1, 1e-2, 1e-3, 1e-4),
            )
            assert grids == {(("sz3", "zfp"), (1e-3, 1e-4))}, name

    def test_advisor_auto_keeps_floor_when_grid_is_coarser(self, advisors, searched):
        for name, advise in advisors.items():
            grids = searched(
                advise, compression="auto,rel,1e-6", codecs=("sz3",), bounds=(1e-1,)
            )
            assert grids == {(("sz3",), (1e-6,))}, name

    def test_advisor_rejects_map_and_lossless(self, advisors):
        for advise in advisors.values():
            with pytest.raises(ConfigurationError):
                advise(compression="a:lossless;auto", codecs=("sz3",), bounds=(1e-3,))
            with pytest.raises(ConfigurationError):
                advise(compression="lossless", codecs=("sz3",), bounds=(1e-3,))


@pytest.fixture(scope="module")
def advisors():
    """Every (codec, bound) advisor, asked about tiny-scale cesm."""
    tb = Testbed(scale="tiny")
    return {
        "Advisor": lambda **kw: Advisor(TradeoffAnalyzer(tb)).recommend("cesm", **kw),
        "DvfsAdvisor": lambda **kw: DvfsAdvisor(tb).advise("cesm", **kw),
        "DalyAdvisor": lambda **kw: DalyAdvisor(tb).advise("cesm", **kw),
    }


@pytest.fixture
def searched(monkeypatch):
    """Call an advisor; return the (codecs, bounds) grids its sweeps ran."""
    from repro.runtime.engine import SweepEngine

    def run(advise, **kwargs):
        grids = set()
        real_run = SweepEngine.run

        def spy(engine, spec):
            if spec.codecs:  # a baseline-only sweep searches no grid
                grids.add((spec.codecs, spec.bounds))
            return real_run(engine, spec)

        monkeypatch.setattr(SweepEngine, "run", spy)
        advise(**kwargs)
        return grids

    return run


# -- the round-trip property ---------------------------------------------------

_BOUNDS = st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 0.5, 1.0, 3e-3, 7.5e-4])
_ABS_BOUNDS = st.sampled_from([1e-3, 0.25, 2.0, 100.0, 1e6, 5e-7])
_EBLCS = st.sampled_from(["sz2", "sz3", "zfp", "qoz", "szx"])
_LOSSLESS = st.sampled_from(["zstd", "blosc", "fpzip", "fpc"])
_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789-", min_size=1, max_size=12
)


@st.composite
def specs(draw):
    mode = draw(st.sampled_from(["lossless", "lossy", "auto"]))
    if mode == "lossless":
        return CompressionSpec(mode="lossless", codec=draw(_LOSSLESS))
    if mode == "lossy":
        bound_mode = draw(st.sampled_from(["abs", "rel"]))
        bound = draw(_ABS_BOUNDS if bound_mode == "abs" else _BOUNDS)
        return CompressionSpec(
            mode="lossy", codec=draw(_EBLCS), bound_mode=bound_mode, bound=bound
        )
    bound_mode = draw(st.sampled_from(["abs", "rel"]))
    bound = draw(_ABS_BOUNDS if bound_mode == "abs" else _BOUNDS)
    return CompressionSpec(mode="auto", bound_mode=bound_mode, bound=bound)


@st.composite
def spec_maps(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    entries = tuple((name, draw(specs())) for name in names)
    default = draw(st.one_of(st.none(), specs()))
    return CompressionMap(entries=entries, default=default)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(spec=specs())
    def test_spec_parse_format_roundtrip(self, spec):
        assert CompressionSpec.parse(spec.format()) == spec
        # format is a fixpoint: canonical text re-formats to itself.
        assert CompressionSpec.parse(spec.format()).format() == spec.format()

    @settings(max_examples=200, deadline=None)
    @given(m=spec_maps())
    def test_map_parse_format_roundtrip(self, m):
        parsed = parse_compression(m.format())
        assert isinstance(parsed, CompressionMap)
        assert parsed == m
        assert parsed.format() == m.format()

    @settings(max_examples=100, deadline=None)
    @given(spec=specs())
    def test_single_spec_through_parse_compression(self, spec):
        assert parse_compression(spec.format()) == spec
