"""HDF5-like self-describing container ("RH5").

A compact reproduction of the HDF5 traits that matter for the study: a
superblock, per-object headers carrying name/dtype/shape, contiguous
little-endian data segments (no byte swapping on x86 — the key cost
difference vs NetCDF classic), per-dataset checksums, and support for
opaque byte datasets so compressed streams can be stored as-is.

Layout::

    superblock:  b"\\x89RH5\\r\\n\\x1a\\n" | u8 version | u32 n_objects | attrs
    per object:  u16 name_len | name | u8 kind ('A' array / 'O' opaque)
                 [array: u8 dtype_char | u8 ndim | u64 shape...]
                 u64 data_len | u32 crc32 | data bytes
    attrs:       u32 count | (u16 klen | key | u16 vlen | value-utf8)*
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import IOModelError
from repro.iolib.base import IOLibrary, WriteCostModel, register_io_library

__all__ = ["HDF5Like"]

_MAGIC = b"\x89RH5\r\n\x1a\n"
_DTYPES = {"f": np.float32, "d": np.float64, "i": np.int32, "q": np.int64, "B": np.uint8}
_DTYPE_CHARS = {np.dtype(v): k for k, v in _DTYPES.items()}


def _pack_attrs(attrs: dict) -> bytes:
    parts = [struct.pack("<I", len(attrs))]
    for k, v in attrs.items():
        kb = str(k).encode("utf-8")
        vb = str(v).encode("utf-8")
        parts.append(struct.pack("<H", len(kb)) + kb)
        parts.append(struct.pack("<H", len(vb)) + vb)
    return b"".join(parts)


def _unpack_attrs(blob: bytes, off: int) -> tuple[dict, int]:
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    attrs = {}
    for _ in range(count):
        (klen,) = struct.unpack_from("<H", blob, off)
        off += 2
        key = blob[off : off + klen].decode("utf-8")
        off += klen
        (vlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        attrs[key] = blob[off : off + vlen].decode("utf-8")
        off += vlen
    return attrs, off


def _take(blob: bytes, off: int, size: int, name: str) -> bytes:
    """The ``size`` data bytes of member ``name`` at ``off``."""
    data = blob[off : off + size]
    if len(data) != size:
        raise IOModelError(
            f"member {name!r} declares {size} bytes, {len(data)} remain"
        )
    return data


@register_io_library
class HDF5Like(IOLibrary):
    """Little-endian contiguous container; the efficient library of Fig. 11."""

    name = "hdf5"
    cost = WriteCostModel(
        serialize_mbps=2200.0,  # near-memcpy: no byte swapping, aligned blocks
        bandwidth_efficiency=0.95,
        open_latency_s=0.004,
        transfer_activity=0.10,
        chunk_meta_latency_s=0.0002,  # one new object header per chunk
    )

    def pack(self, datasets, attrs=None) -> bytes:
        parts = [_MAGIC, struct.pack("<BI", 1, len(datasets)), _pack_attrs(attrs or {})]
        for dsname, obj in datasets.items():
            nb = dsname.encode("utf-8")
            parts.append(struct.pack("<H", len(nb)) + nb)
            if isinstance(obj, (bytes, bytearray, memoryview)):
                data = bytes(obj)
                parts.append(b"O")
                parts.append(struct.pack("<QI", len(data), zlib.crc32(data)))
                parts.append(data)
            else:
                arr = np.ascontiguousarray(obj)
                if arr.dtype not in _DTYPE_CHARS:
                    raise IOModelError(f"unsupported dtype {arr.dtype} for RH5")
                data = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
                parts.append(b"A")
                parts.append(_DTYPE_CHARS[arr.dtype].encode())
                parts.append(struct.pack("<B", arr.ndim))
                parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                parts.append(struct.pack("<QI", len(data), zlib.crc32(data)))
                parts.append(data)
        return b"".join(parts)

    def _unpack(self, blob: bytes):
        if blob[: len(_MAGIC)] != _MAGIC:
            raise IOModelError("not an RH5 container (bad magic)")
        off = len(_MAGIC)
        version, n_objects = struct.unpack_from("<BI", blob, off)
        off += 5
        if version != 1:
            raise IOModelError(f"unsupported RH5 version {version}")
        attrs, off = _unpack_attrs(blob, off)
        datasets: dict[str, np.ndarray | bytes] = {}
        for _ in range(n_objects):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            dsname = blob[off : off + nlen].decode("utf-8")
            off += nlen
            kind = blob[off : off + 1]
            off += 1
            if kind == b"O":
                dlen, crc = struct.unpack_from("<QI", blob, off)
                off += 12
                data = _take(blob, off, dlen, dsname)
                off += dlen
                if zlib.crc32(data) != crc:
                    raise IOModelError(f"checksum mismatch in object {dsname!r}")
                datasets[dsname] = data
            elif kind == b"A":
                dtype_char = chr(blob[off])
                off += 1
                (ndim,) = struct.unpack_from("<B", blob, off)
                off += 1
                shape = struct.unpack_from(f"<{ndim}Q", blob, off)
                off += 8 * ndim
                dlen, crc = struct.unpack_from("<QI", blob, off)
                off += 12
                data = _take(blob, off, dlen, dsname)
                off += dlen
                if zlib.crc32(data) != crc:
                    raise IOModelError(f"checksum mismatch in dataset {dsname!r}")
                dtype = np.dtype(_DTYPES[dtype_char]).newbyteorder("<")
                arr = np.frombuffer(data, dtype=dtype).reshape(shape)
                datasets[dsname] = arr.astype(arr.dtype.newbyteorder("="))
            else:
                raise IOModelError(f"unknown object kind {kind!r}")
        return datasets, attrs
