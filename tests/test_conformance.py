"""The registry-driven conformance battery.

Every experiment kind registered in :mod:`repro.runtime.registry` with a
``conformance`` grid is run through the same battery:

- record values and sha256 store keys bit-identical to the seed tree
  (``tests/fixtures/conformance_golden.json``, regenerated only on
  intentional behaviour changes via ``tools/gen_conformance_golden.py``),
- ResultStore disk round-trip, including non-finite parameters and values,
- parallel (thread-pool) results equal to serial results,
- same-seed byte-identical determinism across fresh stores,
- ``repro sweep --kind <k> --json`` CLI smoke with registry-derived flags,
- registry JSON-schema + invariant validation of the wire-format records.

A future plugin inherits all of this for free: register an
:class:`~repro.runtime.registry.ExperimentKind` with a ``conformance``
grid and the battery picks it up from ``registry.all_kinds()`` (the golden
comparison is skipped for kinds absent from the fixture; everything else
runs).  The battery's helpers live in ``tests/conformance.py``, which
``tests/test_registry.py`` also uses to drive a toy third-party kind.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from conformance import cli_args, conformance_kinds, run_kind
from reference.registry import reference_check_payloads

from repro.core.experiments import Testbed
from repro.runtime import registry
from repro.runtime.spec import SWEEP_KINDS, SweepSpec
from repro.runtime.store import ResultStore, _jsonsafe, encode_record

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "conformance_golden.json"
GOLDEN = json.loads(FIXTURE.read_text())


_KINDS = conformance_kinds()
_IDS = [k.name for k in _KINDS]

#: Wrong values for a record field: every JSON type, the non-finite reprs
#: a float field takes (and a finite one it does not), ints past 64 bits
#: and nested records.
_BAD_VALUES = (None, True, 0, 2**70, 1.5, float("inf"), "x", "1.5", "inf", "nan",
               [], [None], {}, {"__record__": "X"})


def _mutants(record):
    """``record`` with an extra field, and with each field (those of nested
    records too) deleted or set to each of ``_BAD_VALUES``."""
    yield {**record, "extra": 0}
    for name, value in record.items():
        yield {k: v for k, v in record.items() if k != name}
        for bad in _BAD_VALUES:
            yield {**record, name: bad}
        if isinstance(value, dict):
            yield from ({**record, name: sub} for sub in _mutants(value))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from ({**record, name: [sub, *value[1:]]} for sub in _mutants(value[0]))


#: One shared serial run per kind: the golden, schema, determinism, and
#: round-trip subtests all reuse it instead of re-sweeping.
_RUNS: dict[str, tuple] = {}


@pytest.fixture(scope="module")
def testbed():
    return Testbed(scale="tiny")


def shared_run(testbed, kind):
    if kind.name not in _RUNS:
        _RUNS[kind.name] = run_kind(testbed, kind)
    return _RUNS[kind.name]


# -- the battery --------------------------------------------------------------


@pytest.mark.parametrize("kind", _KINDS, ids=_IDS)
class TestConformance:
    def test_golden_identity(self, testbed, kind):
        """Record values and store keys are bit-identical to the seed tree."""
        golden = GOLDEN["kinds"].get(kind.name)
        if golden is None:
            pytest.skip(f"plugin kind {kind.name!r} has no golden fixture entry")
        spec, keys, records = shared_run(testbed, kind)
        assert _jsonsafe(spec.to_dict()) == golden["spec"]
        assert keys == golden["keys"]
        assert [_jsonsafe(encode_record(r)) for r in records] == golden["records"]

    def test_store_roundtrip(self, testbed, kind, tmp_path):
        """Every record survives the disk store, including ±inf fields."""
        _, keys, records = shared_run(testbed, kind)
        store = ResultStore(cache_dir=tmp_path)
        for key, rec in zip(keys, records):
            store.put(key, rec)
        fresh = ResultStore(cache_dir=tmp_path)
        for key, rec in zip(keys, records):
            assert fresh.get(key) == rec

    def test_parallel_equals_serial(self, testbed, kind):
        """Thread-pool execution returns the exact serial records, in order."""
        _, _, serial_records = shared_run(testbed, kind)
        _, _, thread_records = run_kind(testbed, kind, executor="thread")
        assert thread_records == serial_records

    def test_same_seed_determinism(self, testbed, kind):
        """Two fresh-store runs are byte-identical once encoded."""
        _, _, a = run_kind(testbed, kind)
        _, _, b = run_kind(testbed, kind)
        blob_a = json.dumps([_jsonsafe(encode_record(r)) for r in a], sort_keys=True)
        blob_b = json.dumps([_jsonsafe(encode_record(r)) for r in b], sort_keys=True)
        assert blob_a == blob_b

    def test_schema_and_invariants(self, testbed, kind):
        """Wire-format records pass the kind's schema and invariants."""
        _, _, records = shared_run(testbed, kind)
        assert kind.check_records(registry.to_wire(records)) == []

    def test_cli_smoke(self, testbed, kind, capsys):
        """`repro sweep --kind <k> --json` emits exactly the grid, validated."""
        from repro.cli import main

        spec, _, _ = shared_run(testbed, kind)
        assert main(cli_args(kind)) == 0
        emitted = registry.strip_meta(json.loads(capsys.readouterr().out))
        assert len(emitted) == len(spec.points())
        assert kind.check_records(emitted) == []

    def test_schema_matches_record_fields(self, testbed, kind):
        """The wire check requires exactly the record dataclass's fields."""
        tag = kind.record.__name__
        errors = registry.check_record_payloads(
            kind.record, [{"__record__": tag, "extra": 0}, {"__record__": "Other"}]
        )
        missing = [f"missing field {f.name!r}" for f in dataclasses.fields(kind.record)]
        assert errors == [
            *(f"record[0]: {m}" for m in missing),
            "record[0]: unexpected field 'extra'",
            *(f"record[1]: {m}" for m in missing),
            f"record[1].__record__: expected {tag!r}, got 'Other'",
        ]

    def test_hint_check_matches_schema_oracle(self, testbed, kind):
        """The type-hint wire check returns the JSON-schema validator's
        error list, string for string, on every mutated wire record."""
        _, _, records = shared_run(testbed, kind)
        wire = registry.to_wire(records)
        cases = [wire, [], "x", [5], *([m] for rec in wire for m in _mutants(rec))]
        flagged = 0
        for case in cases:
            errors = registry.check_record_payloads(kind.record, case)
            assert errors == reference_check_payloads(kind.record, case), case
            flagged += bool(errors)
        assert flagged > len(cases) // 2

    def test_spec_fields_are_real(self, testbed, kind):
        """Every declared spec field exists on SweepSpec."""
        spec_fields = {f.name for f in dataclasses.fields(SweepSpec)}
        assert set(kind.spec_fields) <= spec_fields

    def test_record_registered_with_store(self, testbed, kind):
        """The kind's record class is reachable through the store's type map."""
        assert registry.record_types()[kind.record.__name__] is kind.record


# -- registry/spec coherence --------------------------------------------------


class TestRegistryCoverage:
    def test_builtin_kinds_all_registered(self):
        """The SWEEP_KINDS snapshot and the golden fixture match the registry."""
        assert set(SWEEP_KINDS) <= set(registry.kind_names())
        assert set(GOLDEN["kinds"]) == set(SWEEP_KINDS)

    def test_axis_table_covers_spec(self):
        """Registry axes and SweepSpec fields are the same set (minus kind)."""
        spec_fields = {f.name for f in dataclasses.fields(SweepSpec)} - {"kind"}
        assert registry.KNOWN_SPEC_FIELDS == spec_fields

    def test_cli_axes_have_unique_flags(self):
        flags = [a.flag for a in registry.cli_axes()]
        assert len(flags) == len(set(flags))

    def test_golden_fixture_is_fresh(self, testbed):
        """The committed fixture matches what the regenerator would write."""
        doc = {"version": 1, "scale": "tiny", "kinds": {}}
        for kind in _KINDS:
            if kind.name not in GOLDEN["kinds"]:
                continue
            spec, keys, records = shared_run(testbed, kind)
            doc["kinds"][kind.name] = {
                "spec": _jsonsafe(spec.to_dict()),
                "keys": keys,
                "records": [_jsonsafe(encode_record(r)) for r in records],
            }
        assert doc == GOLDEN


class TestNonFiniteRoundTrip:
    def test_negative_infinity_value_survives_disk(self, testbed, tmp_path):
        """A -inf record field round-trips through the disk store."""
        kind = registry.get_kind("dvfs")
        _, _, records = shared_run(testbed, kind)
        weird = dataclasses.replace(records[-1], psnr_db=float("-inf"))
        store = ResultStore(cache_dir=tmp_path)
        store.put("weird-key", weird)
        fresh = ResultStore(cache_dir=tmp_path)
        got = fresh.get("weird-key")
        assert got == weird
        assert got.psnr_db == float("-inf")

    def test_infinite_mttf_parameter_keys_stably(self, testbed):
        """float('inf') as a grid parameter hashes identically across runs."""
        from repro.runtime.store import point_key, testbed_fingerprint

        fp = testbed_fingerprint(testbed)
        params = {"mttf_s": float("inf"), "dataset": "cesm"}
        assert point_key("checkpoint_point", params, fp) == point_key(
            "checkpoint_point", dict(params), fp
        )
