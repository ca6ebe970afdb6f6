"""NetCDF-classic-like container ("RNC").

Reproduces the format traits that make NetCDF the slower library in the
paper's Fig. 11: the classic CDF layout stores data **big-endian** (an
actual byte-swap pass on x86, visible in our pack/unpack), keeps a single
monolithic header whose growth rewrites the file, and has no opaque type —
compressed streams must be stored as a byte variable with an extra
conversion.  The cost model encodes the measured consequence: roughly 4x the
write energy of HDF5 for large data (paper Section VI-A).

Layout::

    header:  b"RNC\\x02" | u32 n_vars | attrs
    per var: u16 name_len | name | u8 typecode ('f'/'d'/'B')
             u8 ndim | u32 shape... | u64 vsize | data (big-endian)
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import IOModelError
from repro.iolib.base import IOLibrary, WriteCostModel, register_io_library
from repro.iolib.hdf5_like import _pack_attrs, _take, _unpack_attrs

__all__ = ["NetCDFLike"]

_MAGIC = b"RNC\x02"
_DTYPES = {"f": np.float32, "d": np.float64, "B": np.uint8}
_DTYPE_CHARS = {np.dtype(v): k for k, v in _DTYPES.items()}


@register_io_library
class NetCDFLike(IOLibrary):
    """Big-endian classic-layout container; Fig. 11's slower library."""

    name = "netcdf"
    cost = WriteCostModel(
        serialize_mbps=300.0,  # byte-swap + header rewrite + record packing
        bandwidth_efficiency=0.40,  # unaligned records, no collective buffering
        open_latency_s=0.012,
        transfer_activity=0.30,  # conversion work continues during the drain
        chunk_meta_latency_s=0.003,  # every chunk define rewrites the header
    )

    def pack(self, datasets, attrs=None) -> bytes:
        parts = [_MAGIC, struct.pack("<I", len(datasets)), _pack_attrs(attrs or {})]
        for dsname, obj in datasets.items():
            nb = dsname.encode("utf-8")
            parts.append(struct.pack("<H", len(nb)) + nb)
            if isinstance(obj, (bytes, bytearray, memoryview)):
                arr = np.frombuffer(bytes(obj), dtype=np.uint8)
            else:
                arr = np.ascontiguousarray(obj)
            if arr.dtype not in _DTYPE_CHARS:
                raise IOModelError(f"unsupported dtype {arr.dtype} for RNC")
            parts.append(_DTYPE_CHARS[arr.dtype].encode())
            parts.append(struct.pack("<B", arr.ndim))
            parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            # Classic netCDF stores data big-endian: a real swap on x86.
            data = arr.astype(arr.dtype.newbyteorder(">")).tobytes()
            parts.append(struct.pack("<Q", len(data)))
            parts.append(data)
        return b"".join(parts)

    def _unpack(self, blob: bytes):
        if blob[: len(_MAGIC)] != _MAGIC:
            raise IOModelError("not an RNC container (bad magic)")
        off = len(_MAGIC)
        (n_vars,) = struct.unpack_from("<I", blob, off)
        off += 4
        attrs, off = _unpack_attrs(blob, off)
        datasets: dict[str, np.ndarray | bytes] = {}
        for _ in range(n_vars):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            dsname = blob[off : off + nlen].decode("utf-8")
            off += nlen
            typecode = chr(blob[off])
            off += 1
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            (vsize,) = struct.unpack_from("<Q", blob, off)
            off += 8
            data = _take(blob, off, vsize, dsname)
            off += vsize
            dtype = np.dtype(_DTYPES[typecode]).newbyteorder(">")
            arr = np.frombuffer(data, dtype=dtype).reshape(shape)
            arr = arr.astype(arr.dtype.newbyteorder("="))
            if typecode == "B":
                datasets[dsname] = arr.tobytes()
            else:
                datasets[dsname] = arr
        return datasets, attrs
