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

Subclasses implement ``_compress_impl`` / ``_decompress_impl`` on float64
arrays with an absolute bound.
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
        array = np.ascontiguousarray(array)
        if array.dtype not in (np.float32, np.float64):
            raise CompressionError(
                f"{self.name}: only float32/float64 supported, got {array.dtype}"
            )
        if array.size == 0:
            raise CompressionError(f"{self.name}: cannot compress an empty array")
        if not self.lossless:
            if not (0.0 < rel_bound <= 1.0):
                raise CompressionError(
                    f"{self.name}: rel_bound must be in (0, 1], got {rel_bound}"
                )
        else:
            rel_bound = 0.0

        if self.lossless:
            # Lossless codecs compress the original-dtype bytes so their
            # ratios are comparable with the EBLCs (Fig. 1 semantics).
            payload = self._timed_compress(array, 0.0)
            flag = _FLAG_LOSSLESS
            abs_bound = 0.0
            values = array
        else:
            values = array.astype(np.float64, copy=False)
            if not np.all(np.isfinite(values)):
                raise CompressionError(
                    f"{self.name}: input contains non-finite values"
                )
            vmin = float(values.min())
            vmax = float(values.max())
            value_range = vmax - vmin
            abs_bound = rel_bound * value_range
            if value_range == 0.0:
                payload = struct.pack("<d", vmin)
                flag = _FLAG_CONSTANT
            else:
                # The codecs guarantee the bound in exact arithmetic terms;
                # the reconstruction then rounds a handful of times (the
                # final prediction+residual addition, and for float32 the
                # cast back).  Tighten the working bound by the worst-case
                # rounding at the data's magnitude so the *returned* array
                # stays within contract even for tiny ranges riding huge
                # offsets.
                eps_mach = 2.0**-24 if array.dtype == np.float32 else 2.0**-50
                margin = max(abs(vmin), abs(vmax)) * eps_mach
                abs_bound = max(abs_bound - margin, 0.5 * abs_bound)
                payload = self._timed_compress(values, abs_bound)
                flag = _FLAG_NORMAL

        header = self._pack_header(array, rel_bound, abs_bound, flag)
        return CompressedBuffer(
            data=header + payload,
            codec=self.name,
            shape=array.shape,
            dtype=array.dtype,
            rel_bound=rel_bound,
            original_nbytes=array.nbytes,
        )

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        """Reconstruct the array from a buffer produced by :meth:`compress`."""
        data = buf.data if isinstance(buf, CompressedBuffer) else buf
        codec, shape, dtype, rel_bound, abs_bound, flag, payload = self._unpack_header(
            data
        )
        if codec != self.name:
            raise DecompressionError(
                f"stream was produced by codec {codec!r}, not {self.name!r}"
            )
        if flag == _FLAG_CONSTANT:
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
        if flag == _FLAG_LOSSLESS:
            out = self._timed_decompress(payload, shape, 0.0)
        else:
            out = self._timed_decompress(payload, shape, abs_bound)
        return np.asarray(out, dtype=dtype).reshape(shape)

    # -- tracing shims ------------------------------------------------------

    def _timed_compress(self, values: np.ndarray, abs_bound: float) -> bytes:
        """``_compress_impl`` under an optional wall span (codec track)."""
        tracer = active_tracer()
        if tracer is None:
            return self._compress_impl(values, abs_bound)
        t0 = tracer.now()
        payload = self._compress_impl(values, abs_bound)
        tracer.add_span(
            f"compress:{self.name}", "codec", t0, tracer.now(), clock="wall",
            codec=self.name, in_nbytes=int(values.nbytes),
            out_nbytes=len(payload),
        )
        return payload

    def _timed_decompress(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        """``_decompress_impl`` under an optional wall span (codec track)."""
        tracer = active_tracer()
        if tracer is None:
            return self._decompress_impl(payload, shape, abs_bound)
        t0 = tracer.now()
        out = self._decompress_impl(payload, shape, abs_bound)
        tracer.add_span(
            f"decompress:{self.name}", "codec", t0, tracer.now(), clock="wall",
            codec=self.name, in_nbytes=len(payload),
        )
        return out

    # -- hooks for subclasses ----------------------------------------------

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        raise NotImplementedError

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        raise NotImplementedError

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
