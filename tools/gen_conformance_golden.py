#!/usr/bin/env python3
"""Regenerate the conformance golden fixture from the registry.

Runs every builtin experiment kind's ``conformance`` grid on a
``scale="tiny"`` testbed and writes the expected store keys and encoded
records to ``tests/fixtures/conformance_golden.json`` — the fixture
``tests/test_conformance.py`` pins record values and sha256 store keys
against.

Only regenerate after an *intentional* behaviour change (new calibration,
CACHE_VERSION bump, a new builtin kind); a diff in this file's output on a
pure refactor means grid identity broke.  Review the resulting diff like
code.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.experiments import Testbed  # noqa: E402
from repro.runtime import registry  # noqa: E402
from repro.runtime.engine import SweepEngine  # noqa: E402
from repro.runtime.spec import SWEEP_KINDS, SweepSpec  # noqa: E402
from repro.runtime.store import ResultStore, _jsonsafe, encode_record  # noqa: E402


def main() -> int:
    tb = Testbed(scale="tiny")
    doc = {"version": 1, "scale": "tiny", "kinds": {}}
    for kind in registry.all_kinds():
        if kind.name not in SWEEP_KINDS:
            continue  # the plugin kinds are not part of this fixture
        if kind.conformance is None:
            print(f"{kind.name}: no conformance grid declared, skipped")
            continue
        spec = SweepSpec(kind=kind.name, **kind.conformance)
        engine = SweepEngine(testbed=tb, store=ResultStore())
        records = engine.run(spec)
        keys = [engine._key(p) for p in spec.points()]
        doc["kinds"][kind.name] = {
            "spec": _jsonsafe(spec.to_dict()),
            "keys": keys,
            "records": [_jsonsafe(encode_record(r)) for r in records],
        }
        print(f"{kind.name}: {len(records)} records")
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"
    out.mkdir(exist_ok=True)
    (out / "conformance_golden.json").write_text(
        json.dumps(doc, indent=1, allow_nan=False) + "\n"
    )
    print("wrote tests/fixtures/conformance_golden.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
