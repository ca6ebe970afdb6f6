"""Content-addressed memoization of sweep results.

Every grid point is identified by a stable SHA-256 key over its operation,
its parameters, and a fingerprint of the testbed configuration that would
evaluate it.  The key is computed from canonical JSON (sorted keys, exact
``repr``-round-trip floats), so the same point hashes identically in every
process and on every platform running the same cache version — that is what
lets a process pool share a cache with its parent and lets an on-disk cache
survive between runs.

:class:`ResultStore` layers an in-memory dict over an optional directory of
one-JSON-file-per-key entries.  Records are the frozen dataclasses from
:mod:`repro.core.experiments`, encoded with an explicit ``__record__`` type
tag (nested records nest naturally).  Disk entries carry a SHA-256 payload
checksum; an entry that fails to parse or to verify is quarantined (renamed
``*.corrupt``), counted in :attr:`ResultStore.stats`, and recomputed — never
trusted, never silently re-read.  Writes go through unique temp files and an
atomic rename under an advisory directory lock, so concurrent engines (and
concurrent threads) can share one cache directory safely.

Cache invalidation: the key covers *parameters*, not *code*.  Changing the
throughput calibration, a codec implementation, or a dataset generator
changes what a point would produce without changing its key — bump
:data:`CACHE_VERSION` (or clear the cache directory) when behaviour changes.
See ``docs/user-guide/sweeps.md`` for the full caveats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import ConfigurationError
from repro.obs.trace import active_tracer

__all__ = [
    "CACHE_VERSION",
    "point_key",
    "testbed_fingerprint",
    "encode_record",
    "decode_record",
    "ResultStore",
    "default_store",
]

#: Bump when record semantics or any model calibration changes meaning:
#: old cache entries become unreachable rather than silently wrong.
CACHE_VERSION = 1


def _canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact floats.

    ``allow_nan=False`` keeps the output strict RFC 8259: Python's default
    would emit non-standard ``NaN``/``Infinity`` tokens, which other JSON
    implementations reject — breaking the "same point hashes identically
    everywhere" contract.  Non-finite values must be canonicalized (or
    rejected) before they reach this function; a stray one raises.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _canonical_params(value, path: str = "params"):
    """Recursively canonicalize point parameters for hashing.

    NaN is rejected outright — ``NaN != NaN``, so a NaN-keyed point could
    never be looked up again and two runs would disagree about its identity.
    ±Infinity is mapped to a tagged token that no string parameter can
    collide with, keeping the canonical JSON strictly standard.
    """
    if isinstance(value, float):
        if math.isnan(value):
            raise ConfigurationError(
                f"cache key parameter {path} is NaN; NaN has no canonical identity"
            )
        if math.isinf(value):
            return {"__nonfinite__": "Infinity" if value > 0 else "-Infinity"}
        return value
    if isinstance(value, dict):
        if "__nonfinite__" in value:
            # Reserved for the infinity token above; a user dict carrying it
            # would collide with a float("inf") parameter's identity.
            raise ConfigurationError(
                f"cache key parameter {path} uses the reserved key '__nonfinite__'"
            )
        return {k: _canonical_params(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_params(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def testbed_fingerprint(testbed) -> dict:
    """A JSON-safe digest of everything about a Testbed that shapes results.

    Uses the ``repr`` of the PFS/throughput models (frozen dataclasses, so
    their repr is a stable function of their parameters) rather than object
    identity — two default-constructed testbeds fingerprint identically.
    """
    return {
        "scale": testbed.scale,
        "sample_interval": float(testbed.sample_interval),
        # Round-trip bounds are always checked; the field stays so that no
        # store key changes.
        "verify_bounds": True,
        "pfs": repr(testbed.pfs),
        "throughput": {
            codec: repr(perf) for codec, perf in sorted(testbed.throughput.table.items())
        },
    }


def point_key(op: str, params: dict, fingerprint: dict) -> str:
    """Stable content hash of one grid point under one testbed config."""
    (key,) = point_keys([(op, params)], fingerprint)
    return key


def point_keys(points, fingerprint: dict) -> list[str]:
    """:func:`point_key` of each ``(op, params)`` of ``points``, all under
    one testbed config, whose canonical JSON is built once."""
    # Each blob is the canonical JSON of {"op", "params", "testbed",
    # "version"}, written out in that (sorted) key order.
    testbed = _canonical_json(fingerprint)
    return [
        hashlib.sha256(
            f'{{"op":{_canonical_json(op)},'
            f'"params":{_canonical_json(_canonical_params(params))},'
            f'"testbed":{testbed},"version":{_canonical_json(CACHE_VERSION)}}}'
            .encode("utf-8")
        ).hexdigest()
        for op, params in points
    ]


# -- record (de)serialisation -------------------------------------------------


def _record_type(name):
    # Registry-driven: every registered experiment kind's record class (plus
    # nested record dataclasses and registry.register_record extras) encodes
    # and decodes here — a plugin's records round-trip without touching this
    # module.  Imported lazily so the store stays importable on its own.
    from repro.runtime import registry

    return registry.record_type(name)


def encode_record(record) -> dict:
    """Encode a result dataclass (recursively) as a tagged JSON-safe dict."""
    name = type(record).__name__
    if _record_type(name) is None:
        raise TypeError(f"cannot encode {name!r}: not a registered sweep record")
    payload = {"__record__": name}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            value = encode_record(value)
        elif isinstance(value, (list, tuple)):
            # Sequences of nested records (ClusterResult.tenants) encode
            # element-wise; scalar sequences pass through as JSON arrays.
            value = [
                encode_record(v) if dataclasses.is_dataclass(v) else v
                for v in value
            ]
        payload[f.name] = value
    return payload


def decode_record(payload: dict):
    """Inverse of :func:`encode_record`."""
    cls = _record_type(payload.get("__record__"))
    if cls is None:
        raise ValueError(f"not a sweep record payload: {payload!r}")
    kwargs = {}
    for key, value in payload.items():
        if key == "__record__":
            continue
        if isinstance(value, dict) and "__record__" in value:
            value = decode_record(value)
        elif isinstance(value, list):
            # JSON arrays come back as lists; records store sequences as
            # tuples (frozen dataclasses), so coerce while decoding any
            # nested record payloads.
            value = tuple(
                decode_record(v)
                if isinstance(v, dict) and "__record__" in v
                else v
                for v in value
            )
        kwargs[key] = value
    return cls(**kwargs)


def _jsonsafe(value):
    """Map non-finite floats to tagged tokens so disk entries stay RFC 8259.

    Record fields can legitimately carry ±inf (a lossless round-trip's or an
    uncompressed baseline's ``psnr_db``); ``json.dumps`` would emit bare
    ``Infinity`` tokens that strict parsers reject — the same interop hole
    :func:`_canonical_json` closes for cache keys.  The tag reuses the
    ``__nonfinite__`` key already reserved by :func:`_canonical_params`.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"__nonfinite__": "NaN"}
        return {"__nonfinite__": "Infinity" if value > 0 else "-Infinity"}
    if isinstance(value, dict):
        return {k: _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    return value


def _from_jsonsafe(value):
    """Inverse of :func:`_jsonsafe` (bare legacy Infinity floats pass through)."""
    if isinstance(value, dict):
        if set(value) == {"__nonfinite__"}:
            return float(value["__nonfinite__"])
        return {k: _from_jsonsafe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonsafe(v) for v in value]
    return value


@contextmanager
def _file_lock(fh):
    """Advisory exclusive ``flock`` on an open file; no-op without fcntl.

    Advisory by design: every writer in this codebase takes it, so engines
    sharing a cache directory serialize their metadata operations, while
    plain readers (and platforms without ``fcntl``) are never blocked out
    of their own files.
    """
    if fcntl is None or fh is None:
        yield
        return
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
    except OSError:
        yield
        return
    try:
        yield
    finally:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass


def _record_checksum(record_payload) -> str:
    """SHA-256 over the canonical JSON of a JSON-safe encoded record."""
    return hashlib.sha256(
        _canonical_json(record_payload).encode("utf-8")
    ).hexdigest()


# -- the store ----------------------------------------------------------------


class ResultStore:
    """In-memory + optional on-disk cache of evaluated grid points.

    Thread-safe; every engine executor funnels through :meth:`get` /
    :meth:`put`.  Statistics distinguish memory hits, disk hits (entry
    parsed and promoted to memory), and misses.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self._mem: dict[str, object] = {}
        self._lock = threading.Lock()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt_quarantined = 0

    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    @contextmanager
    def _dir_lock(self):
        """Advisory cross-process lock on the whole cache directory."""
        if self.cache_dir is None:
            yield
            return
        with open(self.cache_dir / ".lock", "a") as fh:
            with _file_lock(fh):
                yield

    def get(self, key: str):
        """The cached record for ``key``, or None (counted as a miss)."""
        tracer = active_tracer()
        if tracer is None:
            return self._get(key)
        t0 = tracer.now()
        record = self._get(key)
        tracer.add_span("store.get", "store", t0, tracer.now(), clock="wall",
                        key=key[:12], hit=record is not None)
        return record

    def _get(self, key: str):
        with self._lock:
            if key in self._mem:
                self.memory_hits += 1
                return self._mem[key]
        record = self._read_disk(key)
        with self._lock:
            if record is not None:
                self.disk_hits += 1
                self._mem[key] = record
            else:
                self.misses += 1
        return record

    def _quarantine(self, key: str, path: Path) -> None:
        """Set a corrupt entry aside as ``<key>.corrupt`` and count it."""
        target = self.cache_dir / f"{key}.corrupt"
        with self._dir_lock():
            try:
                os.replace(path, target)
            except OSError:
                return  # another reader quarantined it first
        with self._lock:
            self.corrupt_quarantined += 1

    def _read_disk(self, key: str):
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        try:
            text = path.read_text()
        except OSError:
            # Absent (or unreadable) is a plain miss: there is no entry to
            # distrust, so nothing to quarantine.
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("version") != CACHE_VERSION:
                # A well-formed entry from another cache version is stale,
                # not corrupt: leave it for its own version, miss here.
                return None
            raw_record = payload["record"]
            checksum = payload.get("checksum")
            if checksum is not None and checksum != _record_checksum(raw_record):
                raise ValueError("entry failed its payload checksum")
            return decode_record(_from_jsonsafe(raw_record))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Truncated, bit-flipped, or semantically undecodable: quarantine
            # so the corruption is visible in stats and never re-parsed, then
            # report a miss so the caller recomputes.
            self._quarantine(key, path)
            return None

    def put(self, key: str, record) -> None:
        """Insert a record; persists to disk when a cache_dir is set."""
        tracer = active_tracer()
        if tracer is None:
            self._put(key, record)
            return
        t0 = tracer.now()
        self._put(key, record)
        tracer.add_span("store.put", "store", t0, tracer.now(), clock="wall",
                        key=key[:12], disk=self.cache_dir is not None)

    def _put(self, key: str, record) -> None:
        with self._lock:
            self._mem[key] = record
        if self.cache_dir is None:
            return
        raw_record = _jsonsafe(encode_record(record))
        payload = {
            "version": CACHE_VERSION,
            "checksum": _record_checksum(raw_record),
            "record": raw_record,
        }
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
        path = self._disk_path(key)
        # mkstemp gives every writer its own file — two threads in one
        # process (same pid) can race a put for the same key safely.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            with self._dir_lock():
                os.replace(tmp_name, path)  # atomic: old or new, never partial
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` would hit — through the same parse-or-miss path
        as :meth:`get`, so a corrupt disk entry is never reported present.
        Does not touch hit/miss statistics or promote the entry to memory.
        """
        with self._lock:
            if key in self._mem:
                return True
        return self._read_disk(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory layer; ``disk=True`` also deletes disk state.

        Disk clearing removes entries, quarantined ``*.corrupt`` files,
        stranded ``*.tmp`` files from killed writers, and the
        ``*.manifest.jsonl`` journals earlier versions wrote — everything
        except the advisory ``.lock`` file itself.
        """
        with self._lock:
            self._mem.clear()
        if disk and self.cache_dir is not None:
            with self._dir_lock():
                for pattern in ("*.json", "*.corrupt", "*.tmp", "*.tmp.*",
                                "*.manifest.jsonl"):
                    for path in self.cache_dir.glob(pattern):
                        path.unlink(missing_ok=True)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._mem),
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "corrupt_quarantined": self.corrupt_quarantined,
            }


_DEFAULT_STORE: ResultStore | None = None
_DEFAULT_LOCK = threading.Lock()


def default_store() -> ResultStore:
    """The process-wide store shared by default-constructed engines.

    One store per process means the uncompressed I/O baseline, the serial
    points behind Figs. 5/7/8/9, and the Table-III round-trips are each
    evaluated exactly once per session no matter how many drivers ask.
    """
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = ResultStore()
        return _DEFAULT_STORE
