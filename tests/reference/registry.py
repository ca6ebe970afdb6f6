"""The JSON-schema record validator the type-hint check replaced.

``registry.check_record_payloads`` validates wire records straight from
the record dataclass's type hints.  Before, the registry derived a
JSON-schema dict from those hints (:func:`record_schema`) and walked the
dict; that validator is kept here verbatim as the oracle:
``test_conformance`` requires both to return the same error list, string
for string and in order, on mutated wire records of every conformance
kind.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.errors import ConfigurationError
from repro.runtime.registry import strip_meta


def _field_schema(tp) -> dict:
    """The JSON schema of one record field, derived from its type hint."""
    import types

    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        types: list[str] = []
        nonfinite = False
        nested = None
        for arg in typing.get_args(tp):
            sub = _field_schema(arg)
            if "properties" in sub:
                nested = sub
            for t in sub["type"] if isinstance(sub["type"], list) else [sub["type"]]:
                if t not in types:
                    types.append(t)
            nonfinite = nonfinite or sub.get("x-nonfinite", False)
        if nested is not None:
            return nested  # Optional[record] — not used today, be safe
        out = {"type": types[0] if len(types) == 1 else types}
        if nonfinite:
            out["x-nonfinite"] = True
        return out
    if origin in (tuple, list):
        args = typing.get_args(tp)
        if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
            item = args[0]
        elif origin is list and len(args) == 1:
            item = args[0]
        else:
            raise ConfigurationError(
                f"cannot derive a JSON schema for field type {tp!r}: only "
                "homogeneous sequences (tuple[X, ...] / list[X]) are supported"
            )
        return {"type": "array", "items": _field_schema(item)}
    if dataclasses.is_dataclass(tp):
        return record_schema(tp)
    if tp is type(None):
        return {"type": "null"}
    if tp is bool:
        return {"type": "boolean"}
    if tp is int:
        return {"type": "integer"}
    if tp is float:
        # ``repro sweep --json`` emits non-finite floats as repr strings
        # ("inf"/"-inf"/"nan") to stay RFC 8259; the validator accepts a
        # string here only when it parses to a non-finite float.
        return {"type": "number", "x-nonfinite": True}
    if tp is str:
        return {"type": "string"}
    raise ConfigurationError(f"cannot derive a JSON schema for field type {tp!r}")


def record_schema(record_cls: type) -> dict:
    """The JSON schema of one record dataclass as the CLI/tools emit it."""
    hints = typing.get_type_hints(record_cls)
    names = [f.name for f in dataclasses.fields(record_cls)]
    properties = {"__record__": {"const": record_cls.__name__}}
    for name in names:
        properties[name] = _field_schema(hints[name])
    return {
        "$id": f"repro.record.{record_cls.__name__}",
        "type": "object",
        "required": ["__record__", *names],
        "additionalProperties": False,
        "properties": properties,
    }


def _check_value(value, schema: dict, where: str, errors: list) -> None:
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{where}: expected {schema['const']!r}, got {value!r}")
        return
    if "properties" in schema:
        _check_object(value, schema, where, errors)
        return
    if "items" in schema:
        if not isinstance(value, list):
            errors.append(f"{where}: wrong type {type(value).__name__}")
            return
        for i, item in enumerate(value):
            _check_value(item, schema["items"], f"{where}[{i}]", errors)
        return
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    for t in types:
        if t == "null" and value is None:
            return
        if t == "boolean" and isinstance(value, bool):
            return
        if t == "integer" and isinstance(value, int) and not isinstance(value, bool):
            return
        if t == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return
        if t == "string" and isinstance(value, str):
            return
    if schema.get("x-nonfinite") and isinstance(value, str):
        try:
            if not math.isfinite(float(value)):
                return  # "inf" / "-inf" / "nan" repr of a non-finite float
        except ValueError:
            pass
    errors.append(f"{where}: wrong type {type(value).__name__}")


def _check_object(record, schema: dict, where: str, errors: list) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: not an object")
        return
    for name in schema["required"]:
        if name not in record:
            errors.append(f"{where}: missing field {name!r}")
    for name, value in record.items():
        sub = schema["properties"].get(name)
        if sub is None:
            errors.append(f"{where}: unexpected field {name!r}")
        else:
            _check_value(value, sub, f"{where}.{name}", errors)


def reference_check_payloads(record_cls: type, records) -> list:
    """Schema violations in JSON ``records`` of one record dataclass: the
    registry's ``check_record_payloads`` as it was, on the derived schema."""
    records = strip_meta(records)
    if not isinstance(records, list) or not records:
        return ["expected a non-empty JSON array of records"]
    errors: list[str] = []
    schema = record_schema(record_cls)
    for i, rec in enumerate(records):
        _check_object(rec, schema, f"record[{i}]", errors)
    return errors
