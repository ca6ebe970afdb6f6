"""Registry edge cases and the toy third-party experiment kind.

Covers the registration protocol (duplicate names, missing or mis-declared
members, unknown spec fields, op conflicts — all rejected eagerly with
``ConfigurationError``), the clean-failure contract for unknown kinds on
both the spec and CLI paths, and a toy plugin kind registered in-test that
runs end-to-end through SweepEngine + ResultStore + CLI and inherits the
full conformance battery through the helpers in ``tests/conformance.py``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import pytest

from repro.core.experiments import Testbed
from repro.errors import ConfigurationError
from repro.runtime import registry
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore, decode_record, encode_record

from conformance import assert_kind_conformance, cli_args, run_kind


# -- a complete toy third-party kind ------------------------------------------


@dataclass(frozen=True)
class ToyPoint:
    """A plugin record: not defined in repro.core.experiments at all."""

    dataset: str
    codec: str | None
    rel_bound: float | None
    score: float


def _toy_evaluate(testbed, dataset, codec, rel_bound):
    # Deterministic and testbed-independent: the plugin op need not be a
    # Testbed method at all.
    score = float(len(dataset)) + (0.0 if rel_bound is None else rel_bound)
    return ToyPoint(dataset=dataset, codec=codec, rel_bound=rel_bound, score=score)


def _toy_expand(spec):
    from repro.runtime.spec import GridPoint

    return [
        GridPoint.make("toy_point", dataset=ds, codec=codec, rel_bound=eps)
        for ds in spec.datasets
        for codec in spec.codecs
        for eps in spec.bounds
    ]


def _toy_invariants(records):
    return [
        f"record[{i}]: non-positive score"
        for i, rec in enumerate(records)
        if rec["score"] <= 0
    ]


def make_toy_kind(name="toy", **overrides):
    members = dict(
        name=name,
        help="a third-party demonstration kind",
        record=ToyPoint,
        expand=_toy_expand,
        ops=("toy_point",),
        evaluate={"toy_point": _toy_evaluate},
        spec_fields=("datasets", "codecs", "bounds"),
        invariants=_toy_invariants,
        conformance=dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3, 1e-4)),
    )
    members.update(overrides)
    return registry.ExperimentKind(**members)


@pytest.fixture
def toy_kind():
    kind = registry.register(make_toy_kind())
    try:
        yield kind
    finally:
        registry.unregister(kind.name)


# -- registration protocol ----------------------------------------------------


class TestRegistrationProtocol:
    def test_duplicate_name_rejected(self, toy_kind):
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(make_toy_kind())

    def test_duplicate_builtin_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(make_toy_kind(name="dvfs"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"help": ""},
            {"record": ""},
            {"record": None},
            {"record": "ToyPoint"},
            {"expand": None},
            {"expand": "expand"},
            {"ops": ()},
            {"ops": ("toy_point", "")},
            {"ops": "toy_point"},
            {"spec_fields": "datasets"},
        ],
        ids=lambda o: f"{next(iter(o))}={next(iter(o.values()))!r}",
    )
    def test_missing_or_invalid_member_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            registry.register(make_toy_kind(**overrides))

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec fields"):
            registry.register(make_toy_kind(spec_fields=("datasets", "warp_factor")))

    def test_evaluate_must_map_declared_ops(self):
        with pytest.raises(ConfigurationError, match="evaluate"):
            registry.register(
                make_toy_kind(evaluate={"other_op": _toy_evaluate})
            )

    def test_op_conflict_with_builtin_rejected(self):
        # io_point is a Testbed-method op; a plugin claiming it with its own
        # callable would silently change every io sweep's results.
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(
                make_toy_kind(ops=("io_point",), evaluate={"io_point": _toy_evaluate})
            )

    def test_non_callable_optional_members_rejected(self):
        with pytest.raises(ConfigurationError, match="must be callable"):
            registry.register(make_toy_kind(invariants="not-callable"))

    def test_conformance_must_be_dict(self):
        with pytest.raises(ConfigurationError, match="conformance"):
            registry.register(make_toy_kind(conformance=[("datasets", ("cesm",))]))

    def test_rejected_registration_leaves_no_trace(self):
        with pytest.raises(ConfigurationError):
            registry.register(make_toy_kind(spec_fields=("warp_factor",)))
        assert "toy" not in registry.kind_names()
        with pytest.raises(ConfigurationError):
            registry.get_kind("toy")

    def test_unregister_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="not registered"):
            registry.unregister("never-registered")

    def test_register_record_requires_dataclass(self):
        with pytest.raises(ConfigurationError, match="not a dataclass"):
            registry.register_record(object)

    def test_register_record_name_collision_rejected(self):
        @dataclass(frozen=True)
        class DvfsPoint:  # shadows the real record's __record__ tag
            x: int

        registry.get_kind("dvfs")  # its module registers the real DvfsPoint
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_record(DvfsPoint)
        # The rejected class never reaches the shared record-type map.
        from repro.core.experiments import DvfsPoint as RealDvfsPoint

        assert registry.record_types()["DvfsPoint"] is RealDvfsPoint


# -- clean failures for unknown kinds -----------------------------------------


class TestUnknownKindFailure:
    def test_spec_names_known_kinds(self):
        with pytest.raises(ConfigurationError) as err:
            SweepSpec(kind="bogus")
        message = str(err.value)
        assert "bogus" in message
        for name in ("serial", "io", "pipeline", "dvfs", "checkpoint"):
            assert name in message

    def test_cli_names_known_kinds(self):
        from repro.cli import main

        with pytest.raises(ConfigurationError) as err:
            main(["sweep", "--kind", "bogus", "--scale", "tiny"])
        message = str(err.value)
        assert "bogus" in message and "checkpoint" in message

    def test_unknown_op_names_registered_ops(self):
        with pytest.raises(ConfigurationError, match="no evaluate entrypoint"):
            registry.evaluate_op(object(), "warp_drive", {})


# -- the toy kind end-to-end --------------------------------------------------


class TestToyKindEndToEnd:
    def test_spec_accepts_plugin_kind(self, toy_kind):
        spec = SweepSpec(kind="toy", datasets=("cesm",), codecs=("szx",),
                         bounds=(1e-3,))
        assert [p.op for p in spec.points()] == ["toy_point"]

    def test_sweeps_through_engine_and_store(self, toy_kind, tmp_path):
        tb = Testbed(scale="tiny")
        spec = SweepSpec(kind="toy", **toy_kind.conformance)
        engine = SweepEngine(testbed=tb, store=ResultStore(cache_dir=tmp_path))
        records = engine.run(spec)
        assert [type(r).__name__ for r in records] == ["ToyPoint", "ToyPoint"]
        assert records[0].score == pytest.approx(4.0 + 1e-3)
        # The plugin record round-trips the tagged store encoding.
        assert decode_record(encode_record(records[0])) == records[0]
        # And the on-disk entries parse back on a fresh store.
        fresh = SweepEngine(testbed=tb, store=ResultStore(cache_dir=tmp_path))
        assert fresh.run(spec) == records
        assert fresh.stats.computed == 0

    def test_cli_table_and_json(self, toy_kind, capsys):
        from repro.cli import main

        argv = cli_args(toy_kind)
        assert main(argv) == 0
        emitted = [r for r in json.loads(capsys.readouterr().out)
                   if "__record__" in r]
        assert {rec["__record__"] for rec in emitted} == {"ToyPoint"}
        assert toy_kind.check_records(emitted) == []
        # No registered table renderer: the generic repr table still prints.
        assert main([a for a in argv if a != "--json"]) == 0
        assert "ToyPoint" in capsys.readouterr().out

    def test_inherits_conformance_battery(self, toy_kind, tmp_path, capsys):
        assert_kind_conformance(Testbed(scale="tiny"), toy_kind, tmp_path, capsys)

    def test_schema_derived_for_plugin_record(self, toy_kind):
        """The wire check reads the plugin record's type hints: every field
        is required, and ``codec: str | None`` takes a string or null."""
        (rec,) = registry.to_wire([ToyPoint("cesm", None, None, 1.0)])
        assert toy_kind.check_records([rec]) == []
        assert toy_kind.check_records([{**rec, "codec": "szx"}]) == []
        assert toy_kind.check_records([{**rec, "codec": 1}]) == [
            "record[0].codec: wrong type int"
        ]
        assert toy_kind.check_records([{"__record__": "ToyPoint"}]) == [
            f"record[0]: missing field {f.name!r}" for f in dataclasses.fields(ToyPoint)
        ]

    def test_unregister_restores_clean_failure(self):
        kind = registry.register(make_toy_kind())
        registry.unregister(kind.name)
        assert "toy" not in registry.kind_names()
        assert "ToyPoint" not in registry.record_types()
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="toy")
        with pytest.raises(ConfigurationError, match="no evaluate entrypoint"):
            registry.evaluate_op(object(), "toy_point", {})
