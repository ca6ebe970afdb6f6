"""I/O stack: container formats (HDF5-like, NetCDF-like) over a PFS model.

Section IV-D writes compressed and uncompressed data with HDF5 and NetCDF to
a Lustre parallel file system.  This subpackage provides:

- real, byte-level container formats with write/read roundtrips
  (:mod:`repro.iolib.hdf5_like`, :mod:`repro.iolib.netcdf_like`) whose
  structural differences (little-endian contiguous layout vs big-endian
  classic layout with full-header rewrites) justify their differing cost
  models;
- a Lustre-like parallel-file-system model (:mod:`repro.iolib.pfs`) with
  OSTs, striping, per-client caps and fair-share aggregate contention;
- the block-pipelined compressed-I/O model (:mod:`repro.iolib.pipeline`):
  chunked compress→write with the transfer of chunk *k* overlapping the
  compression of chunk *k+1*;
- the storage-device catalogue used by the Section-VII extrapolation
  (:mod:`repro.iolib.devices`).

The names below load on first access: importing the package loads none of
these modules, so a container write never loads the PFS or pipeline models.
"""

from repro import _lazy

_EXPORTS = {
    "repro.iolib.base": ("IOLibrary", "WriteCostModel", "get_io_library"),
    "repro.iolib.hdf5_like": ("HDF5Like",),
    "repro.iolib.netcdf_like": ("NetCDFLike",),
    "repro.iolib.pfs": ("PFSModel", "fair_share_schedule"),
    "repro.iolib.pipeline": (
        "PipelineConfig", "PipelinePlan", "chunk_array", "chunk_spans", "plan_pipelined_write",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
