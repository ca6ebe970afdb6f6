"""repro — energy trade-offs of error-bounded lossy compressed I/O.

A from-scratch reproduction of Wilkins et al., *"To Compress or Not To
Compress: Energy Trade-Offs and Benefits of Lossy Compressed I/O"*
(arXiv:2410.23497).  The package provides:

- :mod:`repro.compressors` — SZ2, SZ3, QoZ, ZFP, SZx and the Figure-1
  lossless baselines, all pure NumPy with a guaranteed value-range relative
  error bound;
- :mod:`repro.data` — synthetic SDRBench-like scientific datasets (CESM,
  HACC, NYX, S3D and the Fig. 1 extras) with calibrated compressibility;
- :mod:`repro.metrics` — PSNR, error-bound verification, ratios, and the
  paper's 25-run/95 %-CI statistics protocol;
- :mod:`repro.energy` — the simulated RAPL/PAPI measurement stack, Table-I
  CPU catalogue, and the calibrated throughput/strong-scaling model;
- :mod:`repro.iolib` — HDF5-like and NetCDF-like containers over a
  Lustre-like parallel-file-system model;
- :mod:`repro.cluster` — discrete-event multi-node compress+write campaigns;
- :mod:`repro.workloads` — failure-aware checkpointed application lifetimes
  (per-node MTTF failures, Young/Daly intervals, lifecycle
  simulation) behind the ``checkpoint`` sweep kind and the Daly advisor;
- :mod:`repro.core` — the Section-III trade-off formulation, the advisor,
  experiment drivers for every figure/table, and facility-scale
  extrapolation;
- :mod:`repro.runtime` — the parallel sweep engine: declarative
  ``SweepSpec`` grids, a content-addressed memoizing ``ResultStore``, and
  serial/thread/process executors behind every figure driver and the
  ``repro sweep`` CLI subcommand.

Quickstart::

    import numpy as np
    from repro import compress, decompress, Testbed

    data = np.random.default_rng(0).random((64, 64, 64), dtype=np.float32)
    buf = compress(data, "sz3", rel_bound=1e-3)
    recon = decompress(buf)
    report = Testbed().measure_compression("sz3", data, rel_bound=1e-3)
    print(buf.ratio, report.energy_j)
"""

from repro import _lazy
from repro._version import __version__
from repro.compressors import (
    CompressedBuffer,
    Compressor,
    available_compressors,
    get_compressor,
)

__all__ = [
    "__version__",
    "CompressedBuffer",
    "Compressor",
    "available_compressors",
    "get_compressor",
    "compress",
    "decompress",
    "Testbed",
]


def compress(array, codec: str = "sz3", rel_bound: float = 1e-3, **kwargs):
    """Compress ``array`` with a registered codec under a relative bound.

    ``codec`` is any name from :func:`available_compressors` — the
    error-bounded family (``sz2``, ``sz3``, ``qoz``, ``zfp``, ``szx``) or a
    lossless baseline (``zstd``, ``blosc``, ``fpzip``, ``fpc``, which
    ignore the bound).  ``rel_bound`` is the paper's value-range relative
    error bound ε: every reconstructed element is guaranteed within
    ``ε * (array.max() - array.min())`` of the original.  Extra keyword
    arguments are forwarded to the codec constructor.

    Returns a :class:`CompressedBuffer` whose ``data`` bytes embed codec,
    geometry and bound, so they round-trip through files and
    :func:`decompress` without side-band metadata.  The same codecs/bounds
    can be swept as whole (codec × bound × dataset) grids — see
    :mod:`repro.runtime` and the ``repro sweep`` CLI subcommand.
    """
    return get_compressor(codec, **kwargs).compress(array, rel_bound)


def decompress(buf):
    """Decompress a :class:`CompressedBuffer` (or its raw ``bytes``).

    The codec is read from the stream header, so no flags are needed — this
    mirrors ``repro decompress`` / ``repro inspect`` on the CLI (run
    ``repro --help`` for the full subcommand tour, including ``sweep``).
    Returns the reconstructed :class:`numpy.ndarray` with its original
    shape and dtype; for error-bounded codecs it satisfies the stream's
    recorded relative bound, for lossless codecs it is bit-exact.
    """
    return get_compressor(buf.codec).decompress(buf)


# The Testbed pulls in the energy/iolib stacks, which users who only want
# the codecs do not need, so it loads on first access.
__getattr__, __dir__ = _lazy.exports(globals(), {"repro.core.experiments": ("Testbed",)})
