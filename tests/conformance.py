"""Helpers of the registry-driven conformance battery, shared by
``test_conformance`` (every registered kind) and ``test_registry`` (a toy
third-party kind) so neither test module imports the other."""

from __future__ import annotations

import json

from repro.runtime import registry
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore


def conformance_kinds() -> list:
    """Every registered kind that opted into the battery."""
    return [k for k in registry.all_kinds() if k.conformance is not None]


def run_kind(testbed, kind, store=None, executor="serial"):
    """Run a kind's conformance grid; returns (spec, keys, records)."""
    spec = SweepSpec(kind=kind.name, **kind.conformance)
    engine = SweepEngine(
        testbed=testbed, store=store if store is not None else ResultStore(),
        executor=executor,
    )
    records = engine.run(spec)
    keys = [engine._key(p) for p in spec.points()]
    return spec, keys, records


def cli_args(kind) -> list[str]:
    """``repro sweep`` argv reproducing the kind's conformance grid.

    Flags are derived from the registry's axis table, so a plugin kind's
    conformance grid is expressible on the CLI by construction.
    """
    argv = ["sweep", "--kind", kind.name, "--scale", "tiny", "--json"]
    for axis in registry.SWEEP_AXES:
        if axis.flag is None or axis.field not in kind.conformance:
            continue
        value = kind.conformance[axis.field]
        if axis.parse == "invert":
            if not value:
                argv.append(axis.flag)
        elif axis.parse == "flag":
            if value:
                argv.append(axis.flag)
        elif axis.parse in ("csv_str", "csv_int"):
            argv.extend([axis.flag, ",".join(str(v) for v in value)])
        elif axis.parse == "csv_float":
            argv.extend([axis.flag, ",".join(format(v, "g") for v in value)])
        else:
            argv.extend([axis.flag, str(value)])
    return argv


def assert_kind_conformance(testbed, kind, tmp_path, capsys) -> None:
    """The full battery for one kind (used by the toy-plugin e2e test)."""
    spec, keys, serial_records = run_kind(testbed, kind)
    assert serial_records, f"{kind.name}: conformance grid expanded to nothing"
    # parallel == serial
    _, _, thread_records = run_kind(testbed, kind, executor="thread")
    assert thread_records == serial_records
    # disk round-trip
    store = ResultStore(cache_dir=tmp_path / f"cache-{kind.name}")
    for key, rec in zip(keys, serial_records):
        store.put(key, rec)
    fresh = ResultStore(cache_dir=tmp_path / f"cache-{kind.name}")
    for key, rec in zip(keys, serial_records):
        assert fresh.get(key) == rec
    # schema + invariants over the wire format
    assert kind.check_records(registry.to_wire(serial_records)) == []
    # CLI smoke
    from repro.cli import main

    assert main(cli_args(kind)) == 0
    emitted = registry.strip_meta(json.loads(capsys.readouterr().out))
    assert len(emitted) == len(spec.points())
    assert kind.check_records(emitted) == []
