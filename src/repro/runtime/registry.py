"""The experiment-kind registry.

Every sweepable experiment in the repo — the serial/thread profiling grids,
the quality and lossless round-trip tables, the write/read I/O grids, the
block-pipelined writes, the DVFS frequency axis, the checkpointed
lifetimes, the multi-tenant cluster scenarios and the dataset façade — is
one :class:`ExperimentKind` declaration, which names in one place:

- the ``SweepSpec`` fields the kind consumes (its CLI argument surface),
- kind-specific spec **validation** (checked eagerly at spec construction),
- the grid **expansion** into :class:`~repro.runtime.spec.GridPoint` work
  items (the deterministic order every figure expects),
- the **evaluate entrypoint(s)** — testbed operations, or plugin-supplied
  callables for kinds that live outside :class:`Testbed`,
- the **record** dataclass: its name is the store tag, and its type hints
  are the wire schema :func:`check_records` validates against,
- the CLI **table** renderer and the record **invariants** the record
  checker in ``tools/`` runs,
- a tiny **conformance** grid, which opts the kind into the full
  ``tests/test_conformance.py`` battery.

Registering a kind is all it takes: the sweep engine, the result store,
``repro sweep --kind <name>``, the unified schema checker, and the
conformance test battery discover it through :func:`get_kind` /
:func:`all_kinds`.  This module holds the protocol, the lookup, op
dispatch, the record types and the wire checks; no kind.  Each kind the
package ships lives in a module known here by name —
:mod:`repro.core.kind` (the nine Testbed kinds), :mod:`repro.cluster.kind`
and :mod:`repro.dataset.kind` — which is imported, and so registers, the
first time a lookup misses: its kind name, an op or record name no
imported kind declares, or a call that lists every kind.  A path that
never asks for a kind never loads its module.  Registration validates the
protocol eagerly: a plugin missing a required member, reusing a kind name,
or claiming unknown spec fields is rejected with a
:class:`~repro.errors.ConfigurationError` at registration time, never
mid-sweep.

Grid-point identity is untouched by the registry: expansions emit the same
``(op, kwargs)`` pairs the hand-threaded drivers did, so content-addressed
store keys (and therefore every golden record) are bit-identical to the
seed tree — pinned by the conformance battery.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import threading
import types
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

    Required members: ``name``, ``help``, ``record`` (the record dataclass:
    its name is the store's ``__record__`` tag, its type hints the wire
    schema), ``expand``, ``ops``, ``spec_fields``.  Optional: ``validate``
    (extra spec checks), ``evaluate`` (op-name -> callable(testbed,
    **kwargs) for ops that are not ``Testbed`` methods), ``table`` (CLI
    renderer), ``invariants`` (JSON-record checks for the schema gate), and
    ``conformance`` (tiny SweepSpec overrides enrolling the kind in the
    conformance battery).
    """

    name: str
    help: str
    record: type
    expand: typing.Callable[..., list]  # SweepSpec -> [GridPoint]
    ops: tuple[str, ...]  # evaluate entrypoints the expansion emits
    spec_fields: tuple[str, ...]  # SweepSpec axes the kind consumes
    validate: typing.Callable[..., None] | None = None
    evaluate: dict | None = None  # op -> callable(testbed, **kwargs)
    table: typing.Callable[[list], str] | None = None
    invariants: typing.Callable[[list], list] | None = None
    conformance: dict | None = field(default=None, hash=False)

    def check_records(self, records: list) -> list:
        """Schema + invariant violations in CLI-format JSON ``records``."""
        return check_records(self, records)


#: Every kind the package ships, in listing order, and the module that
#: declares it.  A lookup that misses imports the module, which registers.
_MODULES = {
    **dict.fromkeys(("serial", "thread", "quality", "lossless", "io", "read",
                     "pipeline", "dvfs", "checkpoint"), "repro.core.kind"),
    "cluster": "repro.cluster.kind",
    "dataset": "repro.dataset.kind",
}
_LOCK = threading.Lock()
_KINDS: dict[str, ExperimentKind] = {}  # the registered kinds
_OPS: dict[str, typing.Callable | None] = {}  # None = a Testbed method
#: Extra record dataclasses (campaign results, plugin side records) that
#: encode/decode through the store without being a kind's primary record.
_EXTRA_RECORDS: dict[str, type] = {}
_RECORD_TYPES_CACHE: dict[str, type] | None = None


def _import_until(found) -> None:
    """Import the kind modules in listing order until ``found()`` holds."""
    for module in dict.fromkeys(_MODULES.values()):
        if found():
            return
        importlib.import_module(module)


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
    registration time, never from inside a worker pool.  A kind the
    package does not ship is checked against every shipped kind, so
    registering it imports every kind module.
    """
    _required(kind, "name", lambda v: isinstance(v, str) and v, "a non-empty str")
    _required(kind, "help", lambda v: isinstance(v, str) and v, "a one-line str")
    _required(
        kind, "record",
        lambda v: isinstance(v, type) and dataclasses.is_dataclass(v),
        "a record dataclass",
    )
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
    # A shipped name is its module's to register first; any other kind is
    # checked against every shipped kind.
    if kind.name in _MODULES:
        importlib.import_module(_MODULES[kind.name])
    else:
        _import_until(lambda: False)
    with _LOCK:
        if kind.name in _KINDS:
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
        for kind in _KINDS.values():
            for op in kind.ops:
                _OPS[op] = (kind.evaluate or {}).get(op)
        _invalidate_record_cache()


def get_kind(name: str) -> ExperimentKind:
    """Look up a kind, importing its module on first use; unknown names
    fail naming every kind."""
    kind = _KINDS.get(name)
    if kind is None and name in _MODULES:
        importlib.import_module(_MODULES[name])
        kind = _KINDS.get(name)
    if kind is None:
        raise ConfigurationError(
            f"unknown experiment kind {name!r}; known kinds: "
            f"({', '.join(sorted(kind_names()))})"
        )
    return kind


def all_kinds() -> tuple[ExperimentKind, ...]:
    """Every registered kind, in listing order (every kind module imported)."""
    _import_until(lambda: False)
    return tuple(_KINDS[name] for name in kind_names() if name in _KINDS)


def kind_names() -> tuple[str, ...]:
    """Kind names, in listing order; imports no kind module."""
    return tuple(dict.fromkeys((*_MODULES, *_KINDS)))


def evaluate_op(testbed, op: str, kwargs: dict):
    """Evaluate one grid point: a plugin entrypoint or a Testbed method."""
    if op not in _OPS:
        _import_until(lambda: op in _OPS)
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
    records (campaign results) that must round-trip through
    :func:`repro.runtime.store.encode_record` without owning a kind or
    being nested in a kind's record.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(f"{cls!r} is not a dataclass; cannot be a record")
    # Collisions are rejected eagerly — against kind records and nested
    # records too, not just previous register_record calls — so a bad
    # registration never poisons the shared record-type map.
    existing = record_types().get(cls.__name__)
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

    Covers each registered kind's record (a kind whose module is not
    imported yet is left out; :func:`record_type` imports it on a miss),
    any nested record dataclasses reachable through their fields (e.g.
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
        for tp in _fields(cls).values():
            for arg in (tp, *typing.get_args(tp)):
                if dataclasses.is_dataclass(arg) and isinstance(arg, type):
                    add(arg)

    for kind in _KINDS.values():
        add(kind.record)
    for cls in _EXTRA_RECORDS.values():
        add(cls)
    _RECORD_TYPES_CACHE = out
    return out


def record_type(name: str) -> type | None:
    """The record dataclass tagged ``name``, or ``None``; a miss imports the
    kind modules in listing order until one declares it."""
    if name not in record_types():
        _import_until(lambda: name in record_types())
    return record_types().get(name)


# -- wire checks (straight from the record dataclasses' type hints) -----------


@functools.cache
def _fields(cls: type) -> dict:
    """A record dataclass's field type hints, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


#: The JSON values each scalar field type accepts.  A bool is not a number.
_SCALARS = {
    type(None): lambda v: v is None,
    bool: lambda v: isinstance(v, bool),
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _check_value(value, tp, where: str, errors: list) -> None:
    if typing.get_origin(tp) in (tuple, list):  # tuple[X, ...] / list[X]
        if not isinstance(value, list):
            errors.append(f"{where}: wrong type {type(value).__name__}")
            return
        for i, item in enumerate(value):
            _check_value(item, typing.get_args(tp)[0], f"{where}[{i}]", errors)
        return
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    options = typing.get_args(tp) if union else (tp,)
    records = [arg for arg in options if dataclasses.is_dataclass(arg)]
    if records:
        _check_record(value, records[-1], where, errors)
        return
    try:
        if any(_SCALARS[arg](value) for arg in options):
            return
    except KeyError:
        raise ConfigurationError(f"cannot check a record field of type {tp!r}") from None
    if float in options and isinstance(value, str):
        # ``repro sweep --json`` emits non-finite floats as repr strings
        # ("inf"/"-inf"/"nan") to stay RFC 8259.
        try:
            if not math.isfinite(float(value)):
                return
        except ValueError:
            pass
    errors.append(f"{where}: wrong type {type(value).__name__}")


def _check_record(record, cls: type, where: str, errors: list) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: not an object")
        return
    fields = _fields(cls)
    for name in ("__record__", *fields):
        if name not in record:
            errors.append(f"{where}: missing field {name!r}")
    for name, value in record.items():
        if name == "__record__":
            if value != cls.__name__:
                errors.append(f"{where}.{name}: expected {cls.__name__!r}, got {value!r}")
        elif name in fields:
            _check_value(value, fields[name], f"{where}.{name}", errors)
        else:
            errors.append(f"{where}: unexpected field {name!r}")


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
    errors = check_record_payloads(kind.record, records)
    if errors or kind.invariants is None:
        return errors  # schema violations make the invariants meaningless
    return kind.invariants(strip_meta(records))


def check_record_payloads(record_cls: type, records) -> list:
    """Schema violations in JSON ``records`` of one record dataclass.

    The schema-only part of :func:`check_records`, also for records
    registered through :func:`register_record` without owning a kind
    (campaign results) — so the record checker in ``tools/`` can validate
    their JSON too.
    """
    records = strip_meta(records)
    if not isinstance(records, list) or not records:
        return ["expected a non-empty JSON array of records"]
    errors: list[str] = []
    for i, rec in enumerate(records):
        _check_record(rec, record_cls, f"record[{i}]", errors)
    return errors


def to_wire(records) -> list:
    """Records as ``repro sweep --json`` emits them (strict RFC 8259).

    Non-finite floats become their repr strings ("inf"/"-inf"/"nan") —
    ``json.dumps`` would otherwise print bare ``Infinity`` tokens that
    strict parsers reject.  This is the exact format :func:`check_records`
    and the record checker in ``tools/`` validate.
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

