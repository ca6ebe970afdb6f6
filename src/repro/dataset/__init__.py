"""Dataset I/O façade: one compression-spec language for every layer.

Public surface::

    from repro.dataset import Dataset, Variable, write, read, AutoTuner
    from repro.dataset import CompressionSpec, parse_compression

    ds = Dataset.from_catalog(["cesm", "hacc"], scale="tiny")
    write(ds, "out.h5", compression="cesm:lossy,sz3,rel,1e-3;auto")
    back = read("out.h5")

The names below load on first access, and importing the package registers
nothing: the ``dataset`` experiment kind (``repro sweep --kind dataset``,
:mod:`repro.dataset.kind`) loads the first time the runtime registry is
asked for it by name.  The grammar is documented in
``docs/user-guide/datasets.md``.
"""

from repro import _lazy

_EXPORTS = {
    "repro.dataset.containers": ("Dataset", "Variable"),
    "repro.dataset.facade": ("WriteReport", "read", "write"),
    "repro.dataset.kind": ("DATASET_KIND", "DatasetPoint"),
    "repro.dataset.spec": ("CompressionMap", "CompressionSpec", "parse_compression"),
    "repro.dataset.tuner": ("AutoTuner", "TuningReport", "VariableTuning"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
