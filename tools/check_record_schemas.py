#!/usr/bin/env python3
"""Registry-driven schema + invariant gate for sweep records (CI bench-smoke).

Validates the JSON array emitted by ``repro sweep --kind KIND --json``
against the type hints of KIND's record dataclass (read by
:mod:`repro.runtime.registry`) and its registered physical invariants,
declared once per kind in the registry.  This is the one record checker:
a plugin kind that registers ``invariants`` is validated by it with no
tool changes.

Usage::

    python tools/check_record_schemas.py KIND SWEEP.json

``KIND`` may also name a record dataclass registered through
``registry.register_record`` without owning a kind (``CampaignResult``):
those validate schema-only, so campaign JSON is gated like every
registered kind's.  Two spellings are special:

- ``bench`` validates a ``BENCH_kernels.json`` benchmark document
  (:func:`repro.runtime.benchmark.load_doc`) — a versioned dict with
  history, not a sweep record array — and requires every whole-field codec
  row of its latest run to have its ``*_chunked`` twin;
- sweep arrays may carry a trailing ``{"__meta__": ...}`` element
  (``repro sweep --json`` run telemetry); it is stripped before
  validation, never schema-checked.

Exits non-zero (listing the violations) on any failure, so schema or model
drift fails the build instead of shipping silently.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def check(kind_name: str, path) -> list[str]:
    """All schema/invariant violations in ``path`` (empty list = valid)."""
    import repro.cluster.campaign  # noqa: F401  (registers the CampaignResult record)
    from repro.errors import ConfigurationError
    from repro.runtime import registry

    if kind_name == "bench":
        from repro.runtime.benchmark import load_doc, missing_chunked_rows

        try:
            doc = load_doc(path)
        except (OSError, ValueError) as exc:
            return [f"benchmark schema drift in {path}: {exc}"]
        return [
            f"{path}: whole-field codec row {row} has no *_chunked row"
            for row in missing_chunked_rows(doc)
        ]

    record_cls = None
    try:
        kind = registry.get_kind(kind_name)
    except ConfigurationError as exc:
        # Not a kind: fall back to the registered record dataclasses, so
        # kind-less records (campaign results) validate schema-only.
        record_cls = registry.record_type(kind_name)
        if record_cls is None:
            return [str(exc)]
        kind = None
    try:
        records = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read {path}: {exc}"]
    if kind is None:
        return registry.check_record_payloads(record_cls, records)
    return kind.check_records(records)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: check_record_schemas.py KIND SWEEP.json", file=sys.stderr)
        return 2
    errors = check(argv[1], argv[2])
    if errors:
        for err in errors:
            print(f"FAIL: {err}", file=sys.stderr)
        return 1
    print(f"{argv[2]}: {argv[1]} records OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
