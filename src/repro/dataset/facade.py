"""``repro.dataset.write``/``read``: one call from arrays to container file.

The enstools-style entry point the ROADMAP asks for::

    from repro.dataset import Dataset, write, read

    ds = Dataset.from_catalog(["cesm", "hacc"], scale="tiny")
    report = write(ds, "out.h5", compression="temp:lossy,sz3,abs,1e-3;auto")
    back = read("out.h5")          # bit-exact vs the written reconstructions

``write`` hands the compression spec to
:meth:`~repro.dataset.tuner.AutoTuner.tune`, which resolves it per
variable (``auto`` by a grid search) and compresses each stored stream —
the whole variable, or each of its ``n_chunks`` leading-axis chunks —
exactly once, measuring quality from those same streams.  ``write`` packs
the opaque, self-describing codec streams into a registered I/O container
(HDF5-like or NetCDF-like).  ``read`` needs no flags: the container magic
picks the library, the stream headers pick the codecs.  Reading back gives
exactly the arrays a consumer of the file would see — for lossless
variables the original bits, for lossy ones the reconstruction the chosen
spec guarantees — and a truncated or corrupt file raises
:class:`~repro.errors.IOModelError` or
:class:`~repro.errors.DecompressionError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors import get_compressor
from repro.compressors.base import Compressor, group_indices
from repro.dataset.containers import Dataset, Variable
from repro.dataset.spec import parse_compression
from repro.dataset.tuner import AutoTuner, TuningReport
from repro.errors import ConfigurationError, DecompressionError, IOModelError
from repro.iolib.base import get_io_library

__all__ = ["write", "read", "WriteReport"]

#: Attr-key prefixes in the container (attrs are flat utf-8 string pairs).
_SPEC_PREFIX = "spec/"
_SOURCE_PREFIX = "source/"
_CHUNKS_PREFIX = "chunks/"
_ORDER_ATTR = "__variables__"


@dataclass(frozen=True)
class WriteReport:
    """What one :func:`write` call did, per variable and in total."""

    path: str
    io_library: str
    compression: str  # canonical requested spec/map
    bytes_written: int  # container file size
    original_nbytes: int  # uncompressed payload across variables
    tuning: TuningReport  # per-variable resolution (auto and explicit)

    @property
    def ratio(self) -> float:
        """Whole-file ratio (container overhead included)."""
        return self.original_nbytes / self.bytes_written if self.bytes_written else 0.0


def write(
    dataset: Dataset,
    path,
    compression: str = "auto,rel,1e-3",
    io_library: str = "hdf5",
    n_chunks: int = 1,
    testbed=None,
    tuner: AutoTuner | None = None,
) -> WriteReport:
    """Compress per the spec and write one container file; returns a report.

    ``n_chunks > 1`` stores each variable as leading-axis chunks (the
    block-pipelined container layout), each chunk its own self-describing
    stream; :func:`read` reassembles them transparently.
    """
    if not isinstance(dataset, Dataset):
        raise ConfigurationError(
            f"write() takes a repro.dataset.Dataset, got {type(dataset).__name__}"
        )
    if n_chunks < 1:
        raise ConfigurationError("n_chunks must be >= 1")
    parsed = parse_compression(compression)
    parsed.validate()
    if tuner is None:
        tuner = AutoTuner(testbed=testbed)
    tuning = tuner.tune(dataset, parsed, n_chunks=n_chunks)

    streams: dict[str, bytes] = {}
    attrs: dict[str, str] = {_ORDER_ATTR: ",".join(dataset.names)}
    for key, value in dataset.attrs.items():
        attrs[f"user/{key}"] = str(value)
    for variable in dataset:
        pieces = tuning.streams[variable.name]
        if len(pieces) > 1:
            for i, stream in enumerate(pieces):
                streams[f"{variable.name}/{i:05d}"] = stream
            attrs[f"{_CHUNKS_PREFIX}{variable.name}"] = str(len(pieces))
        else:
            streams[variable.name] = pieces[0]
        attrs[f"{_SPEC_PREFIX}{variable.name}"] = tuning.for_variable(
            variable.name
        ).resolved
        if variable.source is not None:
            attrs[f"{_SOURCE_PREFIX}{variable.name}"] = (
                f"{variable.source}:{variable.scale}"
            )
    lib = get_io_library(io_library)
    nbytes = lib.write_file(path, streams, attrs)
    return WriteReport(
        path=str(path),
        io_library=io_library,
        compression=parsed.canonical,
        bytes_written=nbytes,
        original_nbytes=dataset.nbytes,
        tuning=tuning,
    )


def _sniff_library(blob: bytes):
    """Pick the registered I/O library whose magic matches the container."""
    from repro.iolib.base import _libraries

    errors = []
    for name in sorted(_libraries()):
        lib = get_io_library(name)
        try:
            return name, lib.unpack(blob)
        except IOModelError as exc:
            errors.append(f"{name}: {exc}")
    raise IOModelError(
        "no registered I/O library recognises this container "
        f"({'; '.join(errors)})"
    )


def _decode(streams: list) -> list[np.ndarray]:
    """Decode members: self-describing codec streams, one batched call per
    codec, or stored arrays."""
    # A member that is not bytes was stored uncompressed.
    out: list = [
        None if isinstance(s, (bytes, bytearray)) else np.asarray(s) for s in streams
    ]
    coded = [i for i, array in enumerate(out) if array is None]
    codecs = [Compressor._unpack_header(bytes(streams[i]))[0] for i in coded]
    for idx in group_indices(codecs):
        codec = codecs[idx[0]]
        try:
            comp = get_compressor(codec)
        except KeyError:
            raise DecompressionError(f"stream names unknown codec {codec!r}") from None
        members = [coded[i] for i in idx]
        for i, array in zip(members, comp.decompress_many(
            [bytes(streams[i]) for i in members]
        )):
            out[i] = array
    return out


def _variable_data(members: dict, attrs: dict, var_name: str) -> np.ndarray:
    """Decode one variable: its whole member, or its chunks stacked on
    the leading axis when a ``chunks/<var>`` attr declares them."""
    declared = attrs.get(f"{_CHUNKS_PREFIX}{var_name}", "0")
    if not declared.isdecimal() or int(declared) > len(members):
        raise IOModelError(f"malformed chunk count {declared!r} for {var_name!r}")
    n_chunks = int(declared)
    keys = [f"{var_name}/{i:05d}" for i in range(n_chunks)] or [var_name]
    missing = [key for key in keys if key not in members]
    if missing:
        raise IOModelError(f"container has no member {missing[0]!r}")
    parts = _decode([members[key] for key in keys])
    if not n_chunks:
        return parts[0]
    stackable = {(p.dtype, p.shape[1:]) for p in parts}
    if len(stackable) > 1 or min(p.ndim for p in parts) == 0:
        raise IOModelError(f"chunks of {var_name!r} do not stack on axis 0")
    return np.concatenate(parts, axis=0)


def read(path, io_library: str | None = None) -> Dataset:
    """Read a container written by :func:`write` back into a Dataset.

    The library is sniffed from the container magic unless named; each
    member stream decompresses through its own self-describing header.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if io_library is not None:
        name, unpacked = io_library, get_io_library(io_library).unpack(blob)
    else:
        name, unpacked = _sniff_library(blob)
    members, attrs = unpacked
    order = [n for n in attrs.get(_ORDER_ATTR, "").split(",") if n]
    if not order:  # tolerate containers from other writers
        order = sorted(
            {key.partition("/")[0] for key in members},
        )
    variables = []
    for var_name in order:
        source, _, scale = attrs.get(f"{_SOURCE_PREFIX}{var_name}", "").partition(":")
        try:
            variables.append(
                Variable(
                    name=var_name,
                    data=_variable_data(members, attrs, var_name),
                    source=source or None,
                    scale=scale or None,
                )
            )
        except ConfigurationError as exc:
            raise IOModelError(f"malformed variable in {path}: {exc}") from None
    user_attrs = {
        key[len("user/"):]: value
        for key, value in attrs.items()
        if key.startswith("user/")
    }
    user_attrs["io_library"] = name
    for var_name in order:
        spec = attrs.get(f"{_SPEC_PREFIX}{var_name}")
        if spec:
            user_attrs[f"spec/{var_name}"] = spec
    try:
        return Dataset(variables=tuple(variables), attrs=user_attrs)
    except ConfigurationError as exc:
        raise IOModelError(f"malformed dataset in {path}: {exc}") from None
