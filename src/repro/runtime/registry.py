"""The experiment-kind plugin registry.

Every sweepable experiment in the repo — the serial/thread profiling grids,
the quality and lossless round-trip tables, the write/read I/O grids, the
block-pipelined writes, the DVFS frequency axis, and the checkpointed
lifetimes — used to re-thread the same (dataset x codec x bound x CPU x
I/O-library) plumbing through five parallel code paths: ``Testbed``
dispatch, ``SweepSpec`` validation and expansion, store record
registration, CLI flag wiring, and a per-kind ``check_*_schema.py`` tool.

This module replaces all of that with one declaration per kind.  An
:class:`ExperimentKind` names, in one place:

- the ``SweepSpec`` fields the kind consumes (its CLI argument surface),
- kind-specific spec **validation** (checked eagerly at spec construction),
- the grid **expansion** into :class:`~repro.runtime.spec.GridPoint` work
  items (the deterministic order every figure expects),
- the **evaluate entrypoint(s)** — testbed operations, or plugin-supplied
  callables for kinds that live outside :class:`Testbed`,
- the **record** dataclass (store registration + JSON schema, both derived),
- the CLI **table** renderer and the record **invariants** behind
  ``tools/check_record_schemas.py``,
- a tiny **conformance** grid, which opts the kind into the full
  ``tests/test_conformance.py`` battery.

Registering a kind is all it takes: the sweep engine, the result store,
``repro sweep --kind <name>``, the unified schema checker, and the
conformance test battery discover it through :func:`get_kind` /
:func:`all_kinds` — a new experiment axis (service layer, multi-tenant
campaigns, dataset facade) lands as a plugin, not a sixth hand-threaded
stack.  The ``cluster`` and ``dataset`` plugins are known by name and
module: each is imported, and so registers, the first time a lookup
misses — its name, any unknown op or record name, or a call that lists
every kind — so a path that never asks for them never loads them.
Registration validates the protocol eagerly: a plugin missing a
required member, reusing a kind name, or claiming unknown spec fields is
rejected with a :class:`~repro.errors.ConfigurationError` at registration
time, never mid-sweep.

Grid-point identity is untouched by the registry: expansions emit the same
``(op, kwargs)`` pairs the hand-threaded drivers did, so content-addressed
store keys (and therefore every golden record) are bit-identical to the
seed tree — pinned by the conformance battery.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import threading
import typing
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "CliAxis",
    "ExperimentKind",
    "SWEEP_AXES",
    "all_kinds",
    "axis_spec_value",
    "check_records",
    "cli_axes",
    "evaluate_op",
    "get_kind",
    "kind_names",
    "record_schema",
    "record_type",
    "record_types",
    "register",
    "register_record",
    "strip_meta",
    "to_wire",
    "unregister",
]


# -- the CLI axis table -------------------------------------------------------


@dataclass(frozen=True)
class CliAxis:
    """One ``repro sweep`` flag bound to one :class:`SweepSpec` field.

    ``parse`` names how the raw argparse value becomes the spec value:
    ``csv_str``/``csv_float``/``csv_int`` split comma-separated strings,
    ``float``/``int`` pass typed scalars through, ``interval`` keeps policy
    names and converts everything else to seconds, ``flag`` is a plain
    store-true, and ``invert`` maps a ``--no-X`` store-true flag onto a
    default-true spec field.  ``flag`` may be ``None`` for spec-only fields
    with no CLI surface.
    """

    field: str
    flag: str | None
    parse: str
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        """The argparse namespace attribute this axis reads."""
        return self.flag.lstrip("-").replace("-", "_")


#: Every SweepSpec axis a kind may declare in ``spec_fields``, in the
#: canonical ``repro sweep --help`` order.  The CLI builds its sweep flags
#: from this table (restricted to the axes some registered kind consumes).
SWEEP_AXES: tuple[CliAxis, ...] = (
    CliAxis("datasets", "--datasets", "csv_str", "cesm,hacc,nyx,s3d",
            "comma-separated catalogue dataset names"),
    CliAxis("codecs", "--codecs", "csv_str", "sz2,sz3,zfp,qoz,szx",
            "comma-separated codec grid"),
    CliAxis("bounds", "--bounds", "csv_float", "1e-1,1e-2,1e-3,1e-4,1e-5",
            "comma-separated REL error-bound grid"),
    CliAxis("cpus", "--cpus", "csv_str", "max9480",
            "comma-separated Table-I names"),
    CliAxis("io_libraries", "--io-libraries", "csv_str", "hdf5,netcdf",
            "comma-separated"),
    CliAxis("threads", "--threads", "csv_int", "1",
            "comma-separated thread counts (axis for --kind thread)"),
    CliAxis("rel_bound", "--rel-bound", "float", 1e-3,
            "single bound used by the thread/lossless kinds"),
    CliAxis("include_baseline", "--no-baseline", "invert", False,
            "io/read/pipeline kinds: skip the uncompressed baseline points"),
    CliAxis("n_chunks", "--n-chunks", "int", 8,
            "leading-axis chunks per variable (pipeline and checkpoint kinds "
            "stream them through the compress-write pipeline)"),
    CliAxis("overlap", "--no-overlap", "invert", False,
            "pipeline kind: disable stage overlap (sequential control run)"),
    CliAxis("freqs", "--freqs", "csv_float", "",
            "dvfs kind: comma-separated core frequencies in GHz "
            "(default: each CPU's canonical DVFS ladder)"),
    CliAxis("mttfs", "--mttfs", "csv_float", "inf,86400,21600",
            "checkpoint kind: comma-separated per-node MTTFs in seconds "
            "('inf' = failure-free control)"),
    CliAxis("work_s", "--work", "float", 3600.0,
            "checkpoint kind: failure-free compute seconds per lifetime"),
    CliAxis("interval", "--interval", "interval", "daly",
            "checkpoint kind: 'daly', 'young', or explicit seconds "
            "between checkpoints"),
    CliAxis("n_nodes", "--n-nodes", "int", 1,
            "checkpoint kind: allocation width (system MTTF = mttf / nodes)"),
    CliAxis("seed", "--seed", "int", 0,
            "checkpoint kind: failure-history seed"),
    CliAxis("downtime_s", "--downtime", "float", 60.0,
            "checkpoint kind: node outage seconds per failure"),
    CliAxis("lossless_codecs", "--lossless-codecs", "csv_str",
            "zstd,blosc,fpzip,fpc",
            "lossless kind: comma-separated lossless baseline codecs"),
    CliAxis("paper_fidelity", "--paper-fidelity", "flag", False,
            "thread kind: drop codec/ndim combos the paper's toolchain "
            "could not run"),
    CliAxis("compression", "--compression", "str", "",
            "compression-spec string, e.g. 'lossy,sz3,rel,1e-3' or "
            "'auto,rel,1e-3'; derives/narrows the codec and bound axes "
            "(see docs/user-guide/datasets.md)"),
    CliAxis("scenario", "--scenario", "str", "",
            "cluster kind: scenario string, e.g. "
            "'nodes=8; a=ranks:96,codec:szx; b=ranks:96,codec:none' "
            "(see docs/user-guide/cluster.md)"),
)

#: The spec fields a kind may legally claim.
KNOWN_SPEC_FIELDS = frozenset(a.field for a in SWEEP_AXES)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def axis_spec_value(axis: CliAxis, raw):
    """Convert one parsed CLI value into its SweepSpec field value."""
    if axis.parse == "csv_str":
        return _csv(raw)
    if axis.parse == "csv_float":
        return tuple(float(x) for x in _csv(raw))
    if axis.parse == "csv_int":
        return tuple(int(x) for x in _csv(raw))
    if axis.parse == "interval":
        return raw if raw in ("daly", "young") else float(raw)
    if axis.parse == "invert":
        return not raw
    return raw  # float / int / flag: argparse already typed it


def cli_axes() -> tuple[CliAxis, ...]:
    """The axes (with CLI flags) consumed by at least one registered kind."""
    used: set[str] = set()
    for kind in all_kinds():
        used.update(kind.spec_fields)
    return tuple(a for a in SWEEP_AXES if a.flag is not None and a.field in used)


# -- the kind protocol --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind, declared in a single place.

    Required members: ``name``, ``help``, ``record``, ``load_record``,
    ``expand``, ``ops``, ``spec_fields``.  Optional: ``validate`` (extra
    spec checks), ``evaluate`` (op-name -> callable(testbed, **kwargs) for
    ops that are not ``Testbed`` methods), ``table`` (CLI renderer),
    ``invariants`` (JSON-record checks for the schema gate), and
    ``conformance`` (tiny SweepSpec overrides enrolling the kind in the
    conformance battery).
    """

    name: str
    help: str
    record: str  # record dataclass name (the store's __record__ tag)
    load_record: typing.Callable[[], type]
    expand: typing.Callable[..., list]  # SweepSpec -> [GridPoint]
    ops: tuple[str, ...]  # evaluate entrypoints the expansion emits
    spec_fields: tuple[str, ...]  # SweepSpec axes the kind consumes
    validate: typing.Callable[..., None] | None = None
    evaluate: dict | None = None  # op -> callable(testbed, **kwargs)
    table: typing.Callable[[list], str] | None = None
    invariants: typing.Callable[[list], list] | None = None
    conformance: dict | None = field(default=None, hash=False)

    def json_schema(self) -> dict:
        """The JSON schema of this kind's encoded records."""
        return record_schema(self.load_record())

    def check_records(self, records: list) -> list:
        """Schema + invariant violations in CLI-format JSON ``records``."""
        return check_records(self, records)


_LOCK = threading.Lock()
#: Registered kinds in their listing order; a plugin kind not yet imported
#: holds its place with ``None``.
_KINDS: dict[str, ExperimentKind | None] = {}
#: The plugin kinds that register when their module is imported.
_PLUGINS = {"cluster": "repro.cluster.kind", "dataset": "repro.dataset.kind"}
_OPS: dict[str, typing.Callable | None] = {}  # None = a Testbed method
#: Extra record dataclasses (campaign results, plugin side records) that
#: encode/decode through the store without being a kind's primary record.
_EXTRA_RECORDS: dict[str, type] = {}
_RECORD_TYPES_CACHE: dict[str, type] | None = None


def _required(kind, member: str, check, what: str) -> None:
    value = getattr(kind, member, None)
    if not check(value):
        raise ConfigurationError(
            f"experiment kind {getattr(kind, 'name', kind)!r} is missing or "
            f"mis-declares protocol member {member!r}: expected {what}"
        )


def register(kind: ExperimentKind) -> ExperimentKind:
    """Register an experiment kind, validating the protocol eagerly.

    Raises :class:`ConfigurationError` on a duplicate name, a missing or
    non-callable protocol member, an unknown spec field, or an evaluate
    entrypoint that conflicts with an already-registered one — at
    registration time, never from inside a worker pool.
    """
    _required(kind, "name", lambda v: isinstance(v, str) and v, "a non-empty str")
    _required(kind, "help", lambda v: isinstance(v, str) and v, "a one-line str")
    _required(kind, "record", lambda v: isinstance(v, str) and v, "a record class name")
    _required(kind, "load_record", callable, "a zero-arg callable returning the record class")
    _required(kind, "expand", callable, "a callable(spec) -> [GridPoint]")
    _required(
        kind, "ops",
        lambda v: isinstance(v, tuple) and v and all(isinstance(o, str) and o for o in v),
        "a non-empty tuple of op names",
    )
    _required(
        kind, "spec_fields",
        lambda v: isinstance(v, tuple) and all(isinstance(f, str) for f in v),
        "a tuple of SweepSpec field names",
    )
    unknown = set(kind.spec_fields) - KNOWN_SPEC_FIELDS
    if unknown:
        raise ConfigurationError(
            f"experiment kind {kind.name!r} claims unknown spec fields "
            f"{sorted(unknown)}; known: {sorted(KNOWN_SPEC_FIELDS)}"
        )
    for member in ("validate", "table", "invariants"):
        value = getattr(kind, member, None)
        if value is not None and not callable(value):
            raise ConfigurationError(
                f"experiment kind {kind.name!r}: {member} must be callable or None"
            )
    evaluate = getattr(kind, "evaluate", None)
    if evaluate is not None:
        if not isinstance(evaluate, dict) or not all(
            op in kind.ops and callable(fn) for op, fn in evaluate.items()
        ):
            raise ConfigurationError(
                f"experiment kind {kind.name!r}: evaluate must map declared op "
                "names to callables(testbed, **kwargs)"
            )
    conformance = getattr(kind, "conformance", None)
    if conformance is not None and not isinstance(conformance, dict):
        raise ConfigurationError(
            f"experiment kind {kind.name!r}: conformance must be a dict of "
            "SweepSpec overrides or None"
        )
    with _LOCK:
        if _KINDS.get(kind.name) is not None:
            raise ConfigurationError(
                f"experiment kind {kind.name!r} is already registered"
            )
        for op in kind.ops:
            fn = (evaluate or {}).get(op)
            if op in _OPS and _OPS[op] is not fn:
                raise ConfigurationError(
                    f"experiment kind {kind.name!r}: op {op!r} is already "
                    "registered with a different evaluate entrypoint"
                )
        _KINDS[kind.name] = kind
        for op in kind.ops:
            _OPS[op] = (evaluate or {}).get(op)
        _invalidate_record_cache()
    return kind


def unregister(name: str) -> None:
    """Remove a registered kind (primarily for tests tearing down plugins)."""
    with _LOCK:
        if name not in _KINDS:
            raise ConfigurationError(f"experiment kind {name!r} is not registered")
        del _KINDS[name]
        # Rebuild the op table: ops may be shared between kinds.
        _OPS.clear()
        for kind in _loaded():
            for op in kind.ops:
                _OPS[op] = (kind.evaluate or {}).get(op)
        _invalidate_record_cache()


def _loaded() -> list[ExperimentKind]:
    """The kinds whose modules are imported, in listing order."""
    return [kind for kind in _KINDS.values() if kind is not None]


def get_kind(name: str) -> ExperimentKind:
    """Look up a kind; unknown names fail naming every registered kind."""
    kind = _KINDS.get(name)
    if kind is None and name in _KINDS:  # a plugin kind not imported yet
        importlib.import_module(_PLUGINS[name])
        kind = _KINDS.get(name)
    if kind is None:
        raise ConfigurationError(
            f"unknown experiment kind {name!r}; known kinds: "
            f"({', '.join(sorted(_KINDS))})"
        )
    return kind


def all_kinds() -> tuple[ExperimentKind, ...]:
    """Every registered kind, in listing order (plugins imported)."""
    return tuple(get_kind(name) for name in tuple(_KINDS))


def kind_names() -> tuple[str, ...]:
    """Registered kind names, in listing order; imports no plugin."""
    return tuple(_KINDS)


def evaluate_op(testbed, op: str, kwargs: dict):
    """Evaluate one grid point: a plugin entrypoint or a Testbed method."""
    if op not in _OPS:
        all_kinds()  # an op no imported kind declares may be a plugin's
    fn = _OPS.get(op)
    if fn is not None:
        return fn(testbed, **kwargs)
    method = getattr(testbed, op, None)
    if method is None:
        raise ConfigurationError(
            f"no evaluate entrypoint for op {op!r}: not a Testbed method and "
            f"not registered by any experiment kind ({', '.join(sorted(_OPS))})"
        )
    return method(**kwargs)


# -- store registration -------------------------------------------------------


def register_record(cls: type) -> type:
    """Register an auxiliary record dataclass for store encode/decode.

    Kinds register their primary record implicitly; this hook is for side
    records (campaign results, nested plugin payloads) that must round-trip
    through :func:`repro.runtime.store.encode_record` without owning a kind.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(f"{cls!r} is not a dataclass; cannot be a record")
    # Collisions are rejected eagerly — against kind records and nested
    # records too, not just previous register_record calls — so a bad
    # registration never poisons the shared record-type map.
    try:
        existing = record_types().get(cls.__name__)
    except Exception:
        # Registration can run mid-import of a records module (campaign
        # records register while core.experiments is still initialising, so
        # the kinds' load_record() cannot resolve yet).  Check the extras
        # only; record_types() enforces the full invariant on first use.
        existing = _EXTRA_RECORDS.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"record name {cls.__name__!r} is already registered by "
            f"{existing!r}"
        )
    with _LOCK:
        _EXTRA_RECORDS[cls.__name__] = cls
        _invalidate_record_cache()
    return cls


def _invalidate_record_cache() -> None:
    global _RECORD_TYPES_CACHE
    _RECORD_TYPES_CACHE = None


def record_types() -> dict:
    """Every encodable record dataclass, keyed by its ``__record__`` tag.

    Covers each imported kind's primary record (a plugin kind not yet
    imported is left out; :func:`record_type` imports it on a miss), any
    nested record dataclasses reachable through their fields (e.g.
    ``SerialPoint`` nests ``RoundtripRecord``), and auxiliary records from
    :func:`register_record`.
    """
    global _RECORD_TYPES_CACHE
    cached = _RECORD_TYPES_CACHE
    if cached is not None:
        return cached
    out: dict[str, type] = {}

    def add(cls: type) -> None:
        seen = out.get(cls.__name__)
        if seen is cls:
            return
        if seen is not None:
            raise ConfigurationError(
                f"record name {cls.__name__!r} is claimed by two different "
                f"classes: {seen!r} and {cls!r}"
            )
        out[cls.__name__] = cls
        for tp in typing.get_type_hints(cls).values():
            for arg in (tp, *typing.get_args(tp)):
                if dataclasses.is_dataclass(arg) and isinstance(arg, type):
                    add(arg)

    for kind in _loaded():
        cls = kind.load_record()
        if not dataclasses.is_dataclass(cls):
            raise ConfigurationError(
                f"experiment kind {kind.name!r}: load_record() returned "
                f"{cls!r}, which is not a dataclass"
            )
        if cls.__name__ != kind.record:
            raise ConfigurationError(
                f"experiment kind {kind.name!r}: record tag {kind.record!r} "
                f"does not match load_record() class {cls.__name__!r}"
            )
        add(cls)
    for cls in _EXTRA_RECORDS.values():
        add(cls)
    _RECORD_TYPES_CACHE = out
    return out


def record_type(name: str) -> type | None:
    """The record dataclass tagged ``name``, or ``None``; a name no imported
    kind knows imports the plugin kinds and looks again."""
    cls = record_types().get(name)
    if cls is None and None in _KINDS.values():
        all_kinds()
        cls = record_types().get(name)
    return cls


# -- JSON schemas (derived from the record dataclasses) -----------------------


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


def _num(value) -> float:
    """A schema-validated number that may be a non-finite repr string."""
    return float(value) if isinstance(value, str) else value


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


def strip_meta(records):
    """Drop ``__meta__``-tagged elements from a CLI-format JSON array.

    ``repro sweep --json`` appends one trailing ``{"__meta__": ...}``
    element with engine/store run statistics; it is observability payload,
    not a record, so every schema/invariant consumer skips it here.
    """
    if not isinstance(records, list):
        return records
    return [r for r in records if not (isinstance(r, dict) and "__meta__" in r)]


def check_records(kind: ExperimentKind, records) -> list:
    """All schema + invariant violations in CLI-format JSON ``records``.

    ``__meta__`` elements (sweep run statistics) are skipped, never
    validated — they are deliberately outside every record schema.
    """
    records = strip_meta(records)
    if not isinstance(records, list) or not records:
        return ["expected a non-empty JSON array of records"]
    errors: list[str] = []
    schema = kind.json_schema()
    for i, rec in enumerate(records):
        _check_object(rec, schema, f"record[{i}]", errors)
    if errors:
        return errors  # schema violations make the invariants meaningless
    if kind.invariants is not None:
        errors.extend(kind.invariants(records))
    return errors


def check_record_payloads(record_cls: type, records) -> list:
    """Schema violations in JSON ``records`` of one record dataclass.

    The schema-only counterpart of :func:`check_records` for records
    registered through :func:`register_record` without owning a kind
    (campaign results, nested plugin payloads) — so
    ``tools/check_record_schemas.py`` can validate their JSON too.
    """
    records = strip_meta(records)
    if not isinstance(records, list) or not records:
        return ["expected a non-empty JSON array of records"]
    errors: list[str] = []
    schema = record_schema(record_cls)
    for i, rec in enumerate(records):
        _check_object(rec, schema, f"record[{i}]", errors)
    return errors


def to_wire(records) -> list:
    """Records as ``repro sweep --json`` emits them (strict RFC 8259).

    Non-finite floats become their repr strings ("inf"/"-inf"/"nan") —
    ``json.dumps`` would otherwise print bare ``Infinity`` tokens that
    strict parsers reject.  This is the exact format
    :func:`check_records` and ``tools/check_record_schemas.py`` validate.
    """
    from repro.runtime.store import encode_record

    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, list):
            return [finite(v) for v in value]
        return value

    return [finite(encode_record(r)) for r in records]


# -- builtin kinds ------------------------------------------------------------
#
# The expansions below are verbatim ports of the seed SweepSpec._points_*
# methods: they must emit identical (op, kwargs) pairs, because those pairs
# are the content-addressed store identity of every evaluated point.


def _load(name: str):
    def load():
        import repro.core.experiments as exp

        return getattr(exp, name)

    load.__name__ = f"load_{name}"
    return load


def _grid_point(op: str, **kwargs):
    from repro.runtime.spec import GridPoint

    return GridPoint.make(op, **kwargs)


def _expand_serial(spec) -> list:
    return [
        _grid_point(
            "serial_point",
            dataset=ds,
            codec=codec,
            rel_bound=eps,
            cpu_name=cpu,
            threads=spec.threads[0],
        )
        for cpu in spec.cpus
        for ds in spec.datasets
        for codec in spec.codecs
        for eps in spec.bounds
    ]


def _expand_thread(spec) -> list:
    from repro.compressors.capabilities import supported
    from repro.data.registry import get_dataset

    out = []
    for cpu in spec.cpus:
        for ds in spec.datasets:
            ndim = len(get_dataset(ds).paper_shape)
            for codec in spec.codecs:
                if spec.paper_fidelity and not supported(codec, ndim, "openmp"):
                    continue
                for th in spec.threads:
                    out.append(
                        _grid_point(
                            "serial_point",
                            dataset=ds,
                            codec=codec,
                            rel_bound=spec.rel_bound,
                            cpu_name=cpu,
                            threads=th,
                        )
                    )
    return out


def _validate_thread(spec) -> None:
    """Fail early — naming each capability reason — when ``paper_fidelity``
    would drop *every* (codec, dataset) combination from a thread sweep.

    Partial drops stay silent (the paper's own figures omit those series);
    an entirely empty grid is a configuration error, and the reasons come
    from :func:`repro.compressors.capabilities.unsupported_reason` instead
    of a bare zero-record sweep.
    """
    if not spec.paper_fidelity:
        return
    from repro.compressors.capabilities import supported, unsupported_reason
    from repro.data.registry import get_dataset

    reasons = []
    for ds in spec.datasets:
        ndim = len(get_dataset(ds).paper_shape)
        for codec in spec.codecs:
            if supported(codec, ndim, "openmp"):
                return  # at least one combination survives the filter
            reasons.append(
                f"{codec} on {ndim}-D {ds}: "
                f"{unsupported_reason(codec, ndim, 'openmp')}"
            )
    if reasons:
        raise ConfigurationError(
            "--paper-fidelity drops every (codec, dataset) combination from "
            "this thread sweep: " + "; ".join(reasons)
        )


def _expand_quality(spec) -> list:
    return [
        _grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=eps)
        for ds in spec.datasets
        for eps in spec.bounds
        for codec in spec.codecs
    ]


def _expand_lossless(spec) -> list:
    out = []
    for ds in spec.datasets:
        for codec in spec.lossless_codecs:
            out.append(_grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=0.0))
        for codec in spec.codecs:
            out.append(
                _grid_point("roundtrip", dataset=ds, codec=codec, rel_bound=spec.rel_bound)
            )
    return out


def _expand_io(spec, op: str = "io_point") -> list:
    out = []
    for cpu in spec.cpus:
        for lib in spec.io_libraries:
            for ds in spec.datasets:
                if spec.include_baseline:
                    out.append(
                        _grid_point(
                            op,
                            dataset=ds,
                            codec=None,
                            rel_bound=None,
                            io_library=lib,
                            cpu_name=cpu,
                        )
                    )
                for codec in spec.codecs:
                    for eps in spec.bounds:
                        out.append(
                            _grid_point(
                                op,
                                dataset=ds,
                                codec=codec,
                                rel_bound=eps,
                                io_library=lib,
                                cpu_name=cpu,
                            )
                        )
    return out


def _expand_read(spec) -> list:
    return _expand_io(spec, op="read_point")


def _expand_pipeline(spec) -> list:
    # Same grid as `io`, evaluated through the block-pipelined model.
    return [
        _grid_point(
            "pipeline_point",
            n_chunks=spec.n_chunks,
            overlap=spec.overlap,
            **p.as_kwargs(),
        )
        for p in _expand_io(spec, op="pipeline_point")
    ]


def _expand_dvfs(spec) -> list:
    # Same grid as `io`, replicated along the frequency axis (innermost);
    # an empty freqs axis means each CPU's canonical DVFS ladder.
    from repro.energy.cpus import get_cpu

    out = []
    for p in _expand_io(spec, op="dvfs_point"):
        kwargs = p.as_kwargs()
        freqs = spec.freqs or get_cpu(kwargs["cpu_name"]).freq_ladder()
        for f in freqs:
            out.append(_grid_point("dvfs_point", freq_ghz=float(f), **kwargs))
    return out


def _validate_dvfs(spec) -> None:
    # An out-of-range clock must fail at construction, naming the CPU and
    # its DVFS range — not per grid point.
    from repro.energy.cpus import get_cpu

    for name in spec.cpus if spec.freqs else ():
        cpu = get_cpu(name)
        for f in spec.freqs:
            cpu.validate_freq(f)


def _expand_checkpoint(spec) -> list:
    # The `io` grid replicated along the per-node MTTF axis (innermost).
    # The pipeline (n_chunks/overlap) and scenario fields ride along on
    # every point; the default n_chunks=1 prices checkpoints through the
    # sequential write path, n_chunks>1 through the pipelined one.
    out = []
    for p in _expand_io(spec, op="checkpoint_point"):
        for mttf in spec.mttfs:
            out.append(
                _grid_point(
                    "checkpoint_point",
                    mttf_s=float(mttf),
                    work_s=spec.work_s,
                    interval=spec.interval,
                    n_nodes=spec.n_nodes,
                    seed=spec.seed,
                    downtime_s=spec.downtime_s,
                    n_chunks=spec.n_chunks,
                    overlap=spec.overlap,
                    **p.as_kwargs(),
                )
            )
    return out


def _validate_checkpoint(spec) -> None:
    # Validate the whole scenario eagerly: a bad spec must fail at
    # construction (spec-file parse time), not per grid point inside a
    # worker pool.
    if not spec.mttfs:
        raise ConfigurationError("mttfs axis must not be empty")
    if any(not m > 0 for m in spec.mttfs):  # NaN too; inf is failure-free
        raise ConfigurationError("every mttf must be positive")
    if isinstance(spec.interval, str):
        if spec.interval not in ("daly", "young"):
            raise ConfigurationError(
                f"unknown interval policy {spec.interval!r}; expected "
                "'daly', 'young', or a number of seconds"
            )
    elif not spec.interval > 0:
        raise ConfigurationError("explicit interval must be positive")
    for name in ("work_s", "downtime_s"):
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if not spec.work_s > 0:
        raise ConfigurationError("work_s must be positive")
    if spec.downtime_s < 0:
        raise ConfigurationError("downtime_s must be >= 0")
    if spec.n_nodes < 1:
        raise ConfigurationError("n_nodes must be >= 1")


# -- builtin table renderers --------------------------------------------------


def _table_serial(records) -> str:
    from repro.core.report import format_table

    headers = ["dataset", "codec", "REL", "cpu", "thr", "t_comp [s]",
               "t_dec [s]", "E_comp [J]", "E_dec [J]", "ratio", "PSNR [dB]"]
    rows = [
        [p.dataset, p.codec, f"{p.rel_bound:.0e}", p.cpu, p.threads,
         f"{p.compress_time_s:.3f}", f"{p.decompress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.decompress_energy_j:.1f}",
         f"{p.roundtrip.ratio:.2f}", f"{p.roundtrip.psnr_db:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_quality(records) -> str:
    from repro.core.report import format_table

    headers = ["dataset", "codec", "REL", "ratio", "PSNR [dB]", "max rel err"]
    rows = [
        [r.dataset, r.codec, f"{r.rel_bound:.0e}", f"{r.ratio:.2f}",
         f"{r.psnr_db:.1f}" if r.psnr_db != float("inf") else "inf",
         f"{r.max_rel_err:.2e}"]
        for r in records
    ]
    return format_table(headers, rows)


def _table_io(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "payload", "t_io [s]",
               "E_io [J]", "t_codec [s]", "E_codec [J]", "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         si(p.bytes_written, "B"), f"{p.write_time_s:.3f}",
         f"{p.write_energy_j:.1f}", f"{p.compress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_pipeline(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "chunks", "ovl", "payload",
               "t_comp [s]", "t_write [s]", "t_total [s]", "saved [s]",
               "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         p.n_chunks, "on" if p.overlap else "off", si(p.bytes_written, "B"),
         f"{p.compress_time_s:.3f}", f"{p.write_time_s:.3f}",
         f"{p.total_time_s:.3f}", f"{p.overlap_saving_s:.3f}",
         f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_dvfs(records) -> str:
    from repro.core.report import format_table, si

    headers = ["io", "dataset", "codec", "REL", "f [GHz]", "payload",
               "t_comp [s]", "t_io [s]", "E_comp [J]", "E_io [J]",
               "E_total [J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         f"{p.freq_ghz:.2f}", si(p.bytes_written, "B"),
         f"{p.compress_time_s:.3f}", f"{p.write_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.write_energy_j:.1f}",
         f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_checkpoint(records) -> str:
    from repro.core.report import format_table

    headers = ["io", "dataset", "codec", "REL", "MTTF [s]", "tau [s]",
               "ckpts", "fails", "T [s]", "E [J]", "E[T] [s]", "E[J]"]
    rows = [
        [p.io_library, p.dataset, p.codec or "original",
         "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
         "inf" if p.mttf_s == float("inf") else f"{p.mttf_s:.0f}",
         "inf" if p.interval_s == float("inf") else f"{p.interval_s:.1f}",
         p.n_checkpoints, p.n_failures,
         f"{p.makespan_s:.1f}", f"{p.total_energy_j:.1f}",
         f"{p.expected_makespan_s:.1f}", f"{p.expected_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


# -- builtin invariants (the old tools/check_*_schema.py bodies) --------------


def _invariants_roundtrip(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        if rec["compressed_nbytes"] < 1 or rec["original_nbytes"] < 1:
            errors.append(f"{where}: byte counts must be >= 1")
        if rec["max_rel_err"] < 0:
            errors.append(f"{where}: negative max_rel_err")
    return errors


def _invariants_serial(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["threads"] < 1:
            errors.append(f"{where}: threads must be >= 1")
        if min(rec["compress_time_s"], rec["decompress_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["compress_energy_j"], rec["decompress_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
    return errors


_CODEC_COST = ("compress_time_s", "compress_energy_j")


def _baseline_errors(rec, where: str, cost=(), ratio: bool = False) -> list:
    """The write-path kinds' codec checks: ``codec`` and ``rel_bound`` are
    null together, and the uncompressed baseline carries none of the
    ``cost`` fields and (with ``ratio``) a ratio of exactly 1."""
    errors = []
    if (rec["codec"] is None) != (rec["rel_bound"] is None):
        errors.append(f"{where}: codec/rel_bound nullability mismatch")
    if rec["codec"] is None:
        if any(rec[name] != 0 for name in cost):
            errors.append(f"{where}: uncompressed baseline carries codec cost")
        if ratio and rec["ratio"] != 1.0:
            errors.append(f"{where}: uncompressed baseline ratio != 1.0")
    return errors


def _invariants_io(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if min(rec["write_time_s"], rec["compress_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["write_energy_j"], rec["compress_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
        errors += _baseline_errors(rec, where, _CODEC_COST)
    return errors


#: Per-chunk slack for the pipeline makespan invariant.  Overlap can only
#: *hide* stage time, but each additional chunk honestly pays its library's
#: chunk_meta_latency_s (<= 3 ms for NetCDF classic), which the sequential
#: stage sum does not include — so a degenerate config (tiny payload, many
#: chunks) may legitimately end slightly above the stage sum.  10 ms/chunk
#: comfortably covers every shipped cost model while still catching real
#: model drift.
CHUNK_META_ALLOWANCE_S = 0.01


def _invariants_pipeline(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if rec["n_chunks"] < 1:
            errors.append(f"{where}: n_chunks must be >= 1")
        if min(rec["compress_time_s"], rec["write_time_s"], rec["total_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if min(rec["compress_energy_j"], rec["write_energy_j"]) < 0:
            errors.append(f"{where}: negative energy")
        stage_sum = rec["compress_time_s"] + rec["write_time_s"]
        allowance = CHUNK_META_ALLOWANCE_S * rec["n_chunks"]
        if rec["total_time_s"] > stage_sum + allowance + 1e-9:
            errors.append(
                f"{where}: overlapped total {rec['total_time_s']} exceeds "
                f"stage sum {stage_sum} + chunk-metadata allowance {allowance}"
            )
        if not rec["overlap"] and abs(rec["total_time_s"] - stage_sum) > 1e-9:
            errors.append(f"{where}: overlap-off control does not sum exactly")
        errors += _baseline_errors(rec, where)
    return errors


def _invariants_dvfs(records) -> list:
    errors = []
    # Compression time must be non-increasing in frequency per configuration.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["freq_ghz"] <= 0:
            errors.append(f"{where}: freq_ghz must be positive")
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if min(rec["compress_time_s"], rec["write_time_s"]) < 0:
            errors.append(f"{where}: negative stage time")
        if rec["compress_energy_j"] < 0 or rec["write_energy_j"] <= 0:
            errors.append(f"{where}: energy must be positive (idle power alone is)")
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        errors += _baseline_errors(rec, where, _CODEC_COST, ratio=True)
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
        )
        by_config.setdefault(key, []).append(
            (float(rec["freq_ghz"]), float(rec["compress_time_s"]))
        )
    for key, points in by_config.items():
        points.sort()
        for (f_lo, t_lo), (f_hi, t_hi) in zip(points, points[1:]):
            if t_hi > t_lo + 1e-9:
                errors.append(
                    f"config {key}: compress time rose with frequency "
                    f"({t_lo}s @ {f_lo} GHz -> {t_hi}s @ {f_hi} GHz)"
                )
    return errors


def _invariants_checkpoint(records) -> list:
    errors = []
    # Per configuration: the resolved interval must not grow as MTTF drops.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        mttf = _num(rec["mttf_s"])
        interval_s = _num(rec["interval_s"])
        if rec["n_checkpoints"] < 1:
            errors.append(f"{where}: at least one checkpoint must commit")
        if rec["makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: makespan undercuts the useful work")
        if rec["expected_makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: expected makespan undercuts the work")
        if rec["rework_s"] < -1e-9 or rec["n_failures"] < 0:
            errors.append(f"{where}: negative rework or failure count")
        for name in (
            "compute_energy_j",
            "checkpoint_energy_j",
            "restart_energy_j",
            "idle_energy_j",
            "expected_energy_j",
        ):
            if rec[name] < 0:
                errors.append(f"{where}.{name}: negative energy")
        errors += _baseline_errors(
            rec, where, ("ckpt_compress_time_s", "ckpt_compress_energy_j"),
            ratio=True,
        )
        if math.isinf(mttf):
            if rec["n_failures"] != 0 or rec["rework_s"] != 0:
                errors.append(f"{where}: failure-free lifetime shows failures")
            ff = rec["work_s"] + rec["n_checkpoints"] * rec["ckpt_time_s"]
            if abs(rec["makespan_s"] - ff) > 1e-6 * max(1.0, ff):
                errors.append(
                    f"{where}: failure-free makespan {rec['makespan_s']} != "
                    f"work + checkpoints {ff}"
                )
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
            rec["interval"] if isinstance(rec["interval"], str) else None,
        )
        if isinstance(rec["interval"], str):  # daly/young adapt to the MTTF
            by_config.setdefault(key, []).append((mttf, interval_s))
    for key, points in by_config.items():
        points.sort()
        for (m_lo, tau_lo), (m_hi, tau_hi) in zip(points, points[1:]):
            if tau_lo > tau_hi + 1e-9:
                errors.append(
                    f"config {key}: optimal interval grew as MTTF dropped "
                    f"({tau_lo}s @ MTTF {m_lo}s vs {tau_hi}s @ MTTF {m_hi}s)"
                )
    return errors


# -- builtin registrations ----------------------------------------------------

_IO_FIELDS = ("datasets", "codecs", "bounds", "cpus", "io_libraries",
              "include_baseline", "compression")

#: Tiny per-kind grids for the conformance battery: fast at scale="tiny",
#: yet covering the uncompressed baseline, a codec point, and (for the
#: checkpoint kind) an ±inf MTTF parameter.
_CONFORMANCE_IO = dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                       io_libraries=("hdf5",), cpus=("max9480",))

BUILTIN_KINDS = (
    ExperimentKind(
        name="serial",
        help="per-(dataset, codec, bound) (de)compression profiling (Figs. 5/7)",
        record="SerialPoint",
        load_record=_load("SerialPoint"),
        expand=_expand_serial,
        ops=("serial_point",),
        spec_fields=("datasets", "codecs", "bounds", "cpus", "threads",
                     "compression"),
        table=_table_serial,
        invariants=_invariants_serial,
        conformance=dict(datasets=("cesm",), codecs=("szx",),
                         bounds=(1e-3, 1e-4), cpus=("max9480",), threads=(1,)),
    ),
    ExperimentKind(
        name="thread",
        help="OpenMP strong scaling along the thread axis (Fig. 10)",
        record="SerialPoint",
        load_record=_load("SerialPoint"),
        expand=_expand_thread,
        ops=("serial_point",),
        spec_fields=("datasets", "codecs", "threads", "rel_bound", "cpus",
                     "paper_fidelity", "compression"),
        validate=_validate_thread,
        table=_table_serial,
        invariants=_invariants_serial,
        conformance=dict(datasets=("cesm",), codecs=("szx",), threads=(1, 2),
                         rel_bound=1e-3, cpus=("max9480",)),
    ),
    ExperimentKind(
        name="quality",
        help="compression-ratio / PSNR quality grid (Table III)",
        record="RoundtripRecord",
        load_record=_load("RoundtripRecord"),
        expand=_expand_quality,
        ops=("roundtrip",),
        spec_fields=("datasets", "codecs", "bounds", "compression"),
        table=_table_quality,
        invariants=_invariants_roundtrip,
        conformance=dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,)),
    ),
    ExperimentKind(
        name="lossless",
        help="lossless vs error-bounded compression ratios (Fig. 1)",
        record="RoundtripRecord",
        load_record=_load("RoundtripRecord"),
        expand=_expand_lossless,
        ops=("roundtrip",),
        spec_fields=("datasets", "codecs", "lossless_codecs", "rel_bound",
                     "compression"),
        table=_table_quality,
        invariants=_invariants_roundtrip,
        conformance=dict(datasets=("cesm",), codecs=("sz2",),
                         lossless_codecs=("zstd",), rel_bound=1e-2),
    ),
    ExperimentKind(
        name="io",
        help="compress-then-write energy vs the uncompressed baseline (Fig. 11)",
        record="IOPoint",
        load_record=_load("IOPoint"),
        expand=_expand_io,
        ops=("io_point",),
        spec_fields=_IO_FIELDS,
        table=_table_io,
        invariants=_invariants_io,
        conformance=dict(_CONFORMANCE_IO),
    ),
    ExperimentKind(
        name="read",
        help="read-path mirror of the io grid: fetch + decompress",
        record="IOPoint",
        load_record=_load("IOPoint"),
        expand=_expand_read,
        ops=("read_point",),
        spec_fields=_IO_FIELDS,
        table=_table_io,
        invariants=_invariants_io,
        conformance=dict(_CONFORMANCE_IO),
    ),
    ExperimentKind(
        name="pipeline",
        help="block-pipelined chunked compress-and-write with stage overlap",
        record="PipelinePoint",
        load_record=_load("PipelinePoint"),
        expand=_expand_pipeline,
        ops=("pipeline_point",),
        spec_fields=(*_IO_FIELDS, "n_chunks", "overlap"),
        table=_table_pipeline,
        invariants=_invariants_pipeline,
        conformance=dict(_CONFORMANCE_IO, n_chunks=4, overlap=True),
    ),
    ExperimentKind(
        name="dvfs",
        help="the compress-and-write grid swept along the DVFS frequency axis",
        record="DvfsPoint",
        load_record=_load("DvfsPoint"),
        expand=_expand_dvfs,
        ops=("dvfs_point",),
        spec_fields=(*_IO_FIELDS, "freqs"),
        validate=_validate_dvfs,
        table=_table_dvfs,
        invariants=_invariants_dvfs,
        conformance=dict(_CONFORMANCE_IO, freqs=(0.8, 1.9)),
    ),
    ExperimentKind(
        name="checkpoint",
        help="failure-aware checkpointed application lifetimes (Daly/Young)",
        record="CheckpointPoint",
        load_record=_load("CheckpointPoint"),
        expand=_expand_checkpoint,
        ops=("checkpoint_point",),
        spec_fields=(*_IO_FIELDS, "mttfs", "work_s", "interval", "n_nodes",
                     "seed", "downtime_s", "n_chunks", "overlap"),
        validate=_validate_checkpoint,
        table=_table_checkpoint,
        invariants=_invariants_checkpoint,
        conformance=dict(_CONFORMANCE_IO, mttfs=(float("inf"), 14400.0),
                         work_s=900.0, n_nodes=4, seed=0, downtime_s=60.0,
                         interval="daly", n_chunks=1, overlap=False),
    ),
)

for _kind in BUILTIN_KINDS:
    register(_kind)
del _kind
_KINDS.update(dict.fromkeys(_PLUGINS))
