"""Compressor interface, shared stream framing, and the codec registry.

Every codec in this package — the five EBLCs and the lossless baselines —
implements :class:`Compressor`.  The base class owns the parts that must be
identical across codecs so the paper's comparisons are apples-to-apples:

- validation and the **value-range relative** error bound conversion
  ``abs_bound = rel_bound * (max(D) - min(D))`` (paper Eq. 1, footnote 1);
- the constant-array fast path (range 0 reproduces exactly);
- a self-describing stream header (codec name, shape, dtype, bounds) so any
  buffer can be decompressed without external metadata;
- compression-ratio accounting.

Subclasses implement ``_compress_batch`` / ``_decompress_batch``, which code
several float64 pieces (the chunks of one variable), each under its own
absolute bound, in one pass; :meth:`Compressor.compress` is the batch of one.
Codecs without a batched kernel implement ``_compress_impl`` /
``_decompress_impl`` on one array instead.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import CompressionError, DecompressionError
from repro.obs.trace import active_tracer

__all__ = [
    "CompressedBuffer",
    "Compressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
]

_MAGIC = b"RPRC"
_FLAG_NORMAL = 0
_FLAG_CONSTANT = 1
_FLAG_LOSSLESS = 2

#: Most elements a constant stream (and a one-symbol Huffman stream) may
#: declare.  Their payload cannot bound the decoded size, so this does:
#: above every paper snapshot (S3D, 11 x 500^3 = 1.375e9), far below what a
#: forged shape can ask for.
MAX_DECLARED_ELEMENTS = 1 << 31

_DTYPE_CODES = {"f": np.float32, "d": np.float64}
_DTYPE_CHARS = {np.dtype(np.float32): b"f", np.dtype(np.float64): b"d"}


@dataclass(frozen=True)
class CompressedBuffer:
    """A compressed array plus the metadata needed to reconstruct it.

    Attributes
    ----------
    data:
        The full self-describing stream (header + payload).
    codec:
        Registered codec name (e.g. ``"sz3"``).
    shape, dtype:
        Original array geometry.
    rel_bound:
        Requested value-range relative bound (0.0 for lossless codecs).
    original_nbytes:
        Size of the uncompressed array in bytes.
    """

    data: bytes
    codec: str
    shape: tuple[int, ...]
    dtype: np.dtype
    rel_bound: float
    original_nbytes: int
    meta: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes (header included)."""
        return len(self.data)

    @property
    def ratio(self) -> float:
        """Compression ratio ``original bytes / compressed bytes``."""
        return self.original_nbytes / max(1, len(self.data))

    @property
    def bitrate(self) -> float:
        """Compressed bits per original element."""
        n_elems = self.original_nbytes // np.dtype(self.dtype).itemsize
        return 8.0 * len(self.data) / max(1, n_elems)


class Compressor:
    """Abstract error-bounded lossy compressor.

    Subclasses set :attr:`name` and implement the two ``*_impl`` hooks.  The
    public API is :meth:`compress` and :meth:`decompress`.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""
    #: Whether the codec is lossless (``rel_bound`` is ignored if so).
    lossless: ClassVar[bool] = False

    # -- public API -------------------------------------------------------

    def compress(self, array: np.ndarray, rel_bound: float = 0.0) -> CompressedBuffer:
        """Compress ``array`` under a value-range relative error bound.

        Parameters
        ----------
        array:
            float32 or float64 array of any dimensionality >= 1.
        rel_bound:
            ε in (0, 1]; every reconstructed element will satisfy
            ``|D[k] - Dhat[k]| <= ε * (max(D) - min(D))``.  Ignored (and
            recorded as 0) for lossless codecs.
        """
        (buf,) = self.compress_many([array], rel_bound)
        return buf

    def compress_many(self, arrays, rel_bound=0.0) -> list[CompressedBuffer]:
        """:meth:`compress` each of ``arrays`` in one batched pass.

        ``rel_bound`` is one bound for every array, or a sequence of one
        bound per array.  Each buffer is byte-identical to
        ``compress(array, bound)``: every piece keeps its own value range,
        hence its own absolute bound.  The codec's kernel runs once over all
        the pieces (the chunks of one variable, or one field at several
        bounds), so its fixed per-call cost is paid once, not per piece.
        An invalid piece raises what :meth:`compress` raises for it.
        """
        arrays = list(arrays)
        bounds = [rel_bound] * len(arrays) if np.ndim(rel_bound) == 0 else list(rel_bound)
        if len(bounds) != len(arrays):
            raise CompressionError(
                f"{self.name}: {len(bounds)} bounds for {len(arrays)} arrays"
            )
        prepared = [self._prepare(a, b) for a, b in zip(arrays, bounds)]
        coded = [i for i, p in enumerate(prepared) if p[3] is None]
        payloads = dict(zip(coded, self._timed_compress(
            [prepared[i][1] for i in coded], [prepared[i][2] for i in coded]
        )))
        out = []
        for i, (array, _, abs_bound, payload, flag, rel) in enumerate(prepared):
            header = self._pack_header(array, rel, abs_bound, flag)
            out.append(CompressedBuffer(
                data=header + payloads.get(i, payload),
                codec=self.name,
                shape=array.shape,
                dtype=array.dtype,
                rel_bound=rel,
                original_nbytes=array.nbytes,
            ))
        return out

    def _prepare(self, array: np.ndarray, rel_bound: float) -> tuple:
        """Validate one piece; returns ``(array, values, abs_bound, payload,
        flag, rel_bound)`` with ``payload`` None when the kernel must code
        ``values`` under ``abs_bound``."""
        array = np.ascontiguousarray(array)
        if array.dtype not in (np.float32, np.float64):
            raise CompressionError(
                f"{self.name}: only float32/float64 supported, got {array.dtype}"
            )
        if array.size == 0:
            raise CompressionError(f"{self.name}: cannot compress an empty array")
        if self.lossless:
            # Lossless codecs compress the original-dtype bytes so their
            # ratios are comparable with the EBLCs (Fig. 1 semantics).
            return array, array, 0.0, None, _FLAG_LOSSLESS, 0.0
        if not (0.0 < rel_bound <= 1.0):
            raise CompressionError(
                f"{self.name}: rel_bound must be in (0, 1], got {rel_bound}"
            )
        values = array.astype(np.float64, copy=False)
        if not np.all(np.isfinite(values)):
            raise CompressionError(f"{self.name}: input contains non-finite values")
        vmin = float(values.min())
        vmax = float(values.max())
        value_range = vmax - vmin
        abs_bound = rel_bound * value_range
        if value_range == 0.0:
            payload = struct.pack("<d", vmin)
            return array, values, abs_bound, payload, _FLAG_CONSTANT, rel_bound
        # The codecs guarantee the bound in exact arithmetic terms; the
        # reconstruction then rounds a handful of times (the final
        # prediction+residual addition, and for float32 the cast back).
        # Tighten the working bound by the worst-case rounding at the data's
        # magnitude so the *returned* array stays within contract even for
        # tiny ranges riding huge offsets.
        eps_mach = 2.0**-24 if array.dtype == np.float32 else 2.0**-50
        margin = max(abs(vmin), abs(vmax)) * eps_mach
        abs_bound = max(abs_bound - margin, 0.5 * abs_bound)
        return array, values, abs_bound, None, _FLAG_NORMAL, rel_bound

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        """Reconstruct the array from a buffer produced by :meth:`compress`."""
        (out,) = self.decompress_many([buf])
        return out

    def decompress_many(self, bufs) -> list[np.ndarray]:
        """:meth:`decompress` each of ``bufs`` in one batched pass.

        Each array is bit-identical to ``decompress(buf)``, and a corrupt
        stream anywhere in the batch raises the typed error it raises alone.
        """
        out: list[np.ndarray | None] = []
        coded = []
        for buf in bufs:
            data = buf.data if isinstance(buf, CompressedBuffer) else buf
            codec, shape, dtype, _, abs_bound, flag, payload = self._unpack_header(
                data
            )
            if codec != self.name:
                raise DecompressionError(
                    f"stream was produced by codec {codec!r}, not {self.name!r}"
                )
            if flag == _FLAG_CONSTANT:
                out.append(_constant(payload, shape, dtype))
                continue
            if flag == _FLAG_LOSSLESS:
                abs_bound = 0.0
            coded.append((len(out), payload, shape, dtype, abs_bound))
            out.append(None)
        arrays = self._timed_decompress(
            [c[1] for c in coded], [c[2] for c in coded], [c[4] for c in coded]
        )
        for (i, _, shape, dtype, _), array in zip(coded, arrays):
            out[i] = np.asarray(array, dtype=dtype).reshape(shape)
        return out

    # -- tracing shims ------------------------------------------------------

    def _timed_compress(self, values: list, abs_bounds: list) -> list[bytes]:
        """``_compress_batch`` under optional wall spans (codec track)."""
        if not values:
            return []
        tracer = active_tracer()
        if tracer is None:
            return self._compress_batch(values, abs_bounds)
        t0 = tracer.now()
        payloads = self._compress_batch(values, abs_bounds)
        _piece_spans(
            tracer, f"compress:{self.name}", self.name, t0,
            [dict(in_nbytes=int(v.nbytes), out_nbytes=len(p))
             for v, p in zip(values, payloads)],
        )
        return payloads

    def _timed_decompress(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        """``_decompress_batch`` under optional wall spans (codec track)."""
        if not payloads:
            return []
        tracer = active_tracer()
        if tracer is None:
            return self._decompress_batch(payloads, shapes, abs_bounds)
        t0 = tracer.now()
        out = self._decompress_batch(payloads, shapes, abs_bounds)
        _piece_spans(
            tracer, f"decompress:{self.name}", self.name, t0,
            [dict(in_nbytes=len(p)) for p in payloads],
        )
        return out

    # -- hooks for subclasses ----------------------------------------------
    #
    # A codec overrides either the batch hooks (the EBLCs, whose kernels
    # code all pieces at once) or the one-array hooks (the lossless
    # baselines); each pair's default is written in terms of the other.

    def _compress_batch(self, values: list, abs_bounds: list) -> list[bytes]:
        """One payload per float64 piece of ``values``, each coded under its
        own absolute bound."""
        return [self._compress_impl(v, b) for v, b in zip(values, abs_bounds)]

    def _decompress_batch(
        self, payloads: list, shapes: list, abs_bounds: list
    ) -> list[np.ndarray]:
        """One array per payload, each decoded to its own shape and bound."""
        return [
            self._decompress_impl(p, s, b)
            for p, s, b in zip(payloads, shapes, abs_bounds)
        ]

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        (payload,) = self._compress_batch([values], [abs_bound])
        return payload

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        (out,) = self._decompress_batch([payload], [shape], [abs_bound])
        return out

    # -- framing -----------------------------------------------------------

    def _pack_header(
        self, array: np.ndarray, rel_bound: float, abs_bound: float, flag: int
    ) -> bytes:
        name_b = self.name.encode("ascii")
        parts = [
            _MAGIC,
            struct.pack("<B", len(name_b)),
            name_b,
            _DTYPE_CHARS[array.dtype],
            struct.pack("<BB", flag, array.ndim),
            struct.pack(f"<{array.ndim}Q", *array.shape),
            struct.pack("<dd", rel_bound, abs_bound),
        ]
        return b"".join(parts)

    @staticmethod
    def _unpack_header(data: bytes):
        if len(data) < 6 or data[:4] != _MAGIC:
            raise DecompressionError("not a repro compressed stream (bad magic)")
        try:
            off = 4
            name_len = data[off]
            off += 1
            codec = data[off : off + name_len].decode("ascii")
            off += name_len
            dtype_char = chr(data[off])
            off += 1
            if dtype_char not in _DTYPE_CODES:
                raise DecompressionError(f"unknown dtype code {dtype_char!r}")
            dtype = np.dtype(_DTYPE_CODES[dtype_char])
            flag, ndim = struct.unpack_from("<BB", data, off)
            off += 2
            shape = struct.unpack_from(f"<{ndim}Q", data, off)
            off += 8 * ndim
            rel_bound, abs_bound = struct.unpack_from("<dd", data, off)
            off += 16
        except (IndexError, UnicodeDecodeError, struct.error) as exc:
            raise DecompressionError(
                f"truncated or corrupt stream header ({exc})"
            ) from None
        return codec, tuple(shape), dtype, rel_bound, abs_bound, flag, data[off:]


def _constant(payload: bytes, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The array a constant stream declares."""
    if len(payload) < 8:
        raise DecompressionError("truncated constant-array payload")
    n = math.prod(shape)
    if n > MAX_DECLARED_ELEMENTS:
        raise DecompressionError(
            f"constant stream declares {n} elements, over the cap of "
            f"{MAX_DECLARED_ELEMENTS}"
        )
    (value,) = struct.unpack_from("<d", payload, 0)
    return np.full(shape, value, dtype=dtype)


def _piece_spans(tracer, name: str, codec: str, t0: float, pieces: list) -> None:
    """One codec span per piece of a batch: the batch's wall time is
    shared out by each piece's ``in_nbytes``, so the spans tile it."""
    t1 = tracer.now()
    total = sum(p["in_nbytes"] for p in pieces) or 1
    done = 0
    start = t0
    for args in pieces:
        done += args["in_nbytes"]
        end = t0 + (t1 - t0) * done / total
        tracer.add_span(name, "codec", start, end, clock="wall", codec=codec, **args)
        start = end


def group_indices(keys) -> list[list[int]]:
    """Indices of ``keys`` grouped by equal key, groups in first-seen order:
    the pieces a batched kernel can code in one pass."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def by_group(keys, code, *columns) -> list:
    """``code(*columns)`` run once per group of equal ``keys`` on that
    group's entries of each column; the results come back in input order."""
    out: list = [None] * len(keys)
    for idx in group_indices(keys):
        for i, result in zip(idx, code(*([col[i] for i in idx] for col in columns))):
            out[i] = result
    return out


def piece_bounds(abs_bounds, counts, shape=()):
    """Per-row absolute bounds of pieces stacked on a leading axis:
    ``counts[i]`` rows at ``abs_bounds[i]``, shaped ``(rows, *shape)`` to
    broadcast.  One float when every piece has the same bound."""
    if len(set(abs_bounds)) == 1:
        return float(abs_bounds[0])
    return np.repeat(np.asarray(abs_bounds, dtype=np.float64), counts).reshape(
        (-1,) + shape
    )


def take_bounds(bound, rows: np.ndarray, shape=()):
    """Rows ``rows`` of a :func:`piece_bounds` result, shaped ``(rows,
    *shape)`` (the float itself when the pieces agree)."""
    return bound if isinstance(bound, float) else bound[rows].reshape((-1,) + shape)


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type[Compressor]] = {}


def register_compressor(cls: type[Compressor]) -> type[Compressor]:
    """Class decorator adding a codec to the global registry."""
    if not cls.name:
        raise ValueError("compressor class must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"compressor {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _with_lossless() -> dict[str, type[Compressor]]:
    """The registry, once the lossless baselines have registered: they
    load on the first lookup that needs them, not with the package."""
    import repro.compressors.lossless  # noqa: F401

    return _REGISTRY


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered codec by name (e.g. ``get_compressor("sz3")``)."""
    cls = _REGISTRY.get(name) or _with_lossless().get(name)
    if cls is None:
        raise KeyError(f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}")
    return cls(**kwargs)


def available_compressors(include_lossless: bool = True) -> list[str]:
    """Sorted names of all registered codecs."""
    names = [
        n for n, c in _with_lossless().items() if include_lossless or not c.lossless
    ]
    return sorted(names)
