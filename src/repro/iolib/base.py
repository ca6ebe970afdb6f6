"""I/O library interface and per-library cost model.

An :class:`IOLibrary` does two things:

1. **Serialize/deserialize for real** — :meth:`IOLibrary.pack` produces the
   container bytes for a dict of named arrays (or opaque compressed
   buffers); :meth:`IOLibrary.unpack` inverts it.  Tests verify bit-exact
   roundtrips.
2. **Carry its cost model** — a :class:`WriteCostModel` describing how fast
   the library serializes (CPU-bound), how efficiently it drives the PFS,
   its per-file metadata latency, and the CPU activity it sustains while
   waiting on the transfer.  The experiment drivers combine this with a
   :class:`~repro.iolib.pfs.PFSModel` and the energy meter.

The calibration encodes the paper's Section VI-A finding that HDF5 is
consistently more energy-efficient than NetCDF (4.3x for HACC at 1e-3 with
SZx): NetCDF's classic format byte-swaps to big-endian on write, drives the
PFS with smaller unaligned records, and touches the header on every define.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import IOModelError

__all__ = ["WriteCostModel", "IOLibrary", "register_io_library", "get_io_library"]


@dataclass(frozen=True)
class WriteCostModel:
    """Cost parameters of one I/O library (calibrated; see module docstring)."""

    serialize_mbps: float  # CPU-side packing throughput per core (speed-1.0 CPU)
    bandwidth_efficiency: float  # fraction of raw PFS stream bandwidth achieved
    open_latency_s: float  # metadata/open/close latency per file
    transfer_activity: float  # CPU activity level while the transfer drains
    #: Metadata touched per *additional* chunk in a pipelined write: ~free
    #: for HDF5 (a new contiguous object header), expensive for NetCDF
    #: classic (every variable define rewrites the monolithic header).
    chunk_meta_latency_s: float = 0.0

    def serialize_seconds(self, nbytes: int, cpu_speed: float) -> float:
        """CPU time to pack ``nbytes`` into the container format."""
        if nbytes < 0:
            raise IOModelError("nbytes must be non-negative")
        return (nbytes / 1e6) / (self.serialize_mbps * cpu_speed)


class IOLibrary:
    """Abstract container format + cost model."""

    name: ClassVar[str] = ""
    cost: ClassVar[WriteCostModel]

    # -- real serialization --------------------------------------------------

    def pack(self, datasets: dict[str, np.ndarray | bytes], attrs: dict | None = None) -> bytes:
        """Serialize named arrays/opaque buffers into container bytes."""
        raise NotImplementedError

    def unpack(self, blob: bytes) -> tuple[dict[str, np.ndarray | bytes], dict]:
        """Parse container bytes back into ``(datasets, attrs)``.

        A truncated or corrupt container raises :class:`IOModelError`: the
        raw errors parsing provokes (short reads, bad utf-8 names, unknown
        type codes, data that does not fill its declared shape) included.
        """
        try:
            return self._unpack(blob)
        except (struct.error, ValueError, KeyError, IndexError) as exc:
            raise IOModelError(
                f"truncated or corrupt {self.name} container "
                f"({type(exc).__name__}: {exc})"
            ) from None

    def _unpack(self, blob: bytes) -> tuple[dict[str, np.ndarray | bytes], dict]:
        """Format-specific parse behind :meth:`unpack`."""
        raise NotImplementedError

    def write_file(self, path, datasets, attrs=None) -> int:
        """Pack and write to ``path``; returns bytes written."""
        blob = self.pack(datasets, attrs)
        with open(path, "wb") as fh:
            fh.write(blob)
        return len(blob)

    def read_file(self, path):
        """Read and unpack a file written by :meth:`write_file`."""
        with open(path, "rb") as fh:
            return self.unpack(fh.read())


_REGISTRY: dict[str, type[IOLibrary]] = {}


def register_io_library(cls: type[IOLibrary]) -> type[IOLibrary]:
    """Class decorator registering an I/O library by name."""
    if not cls.name:
        raise ValueError("IOLibrary subclasses must set a name")
    if cls.name in _REGISTRY:
        raise ValueError(f"I/O library {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _libraries() -> dict[str, type[IOLibrary]]:
    """Every registered I/O library by name, the built-in containers
    included: they register when first imported, and :mod:`repro.iolib`
    itself imports neither."""
    import repro.iolib.hdf5_like  # noqa: F401
    import repro.iolib.netcdf_like  # noqa: F401

    return _REGISTRY


def get_io_library(name: str) -> IOLibrary:
    """Instantiate a registered I/O library (``"hdf5"`` or ``"netcdf"``)."""
    cls = _REGISTRY.get(name) or _libraries().get(name)
    if cls is None:
        raise KeyError(f"unknown I/O library {name!r}; available: {sorted(_REGISTRY)}")
    return cls()
