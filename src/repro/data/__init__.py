"""Synthetic SDRBench-like scientific datasets.

The paper benchmarks on SDRBench snapshots (Table II): CESM-ATM (climate),
HACC (cosmology particles), NYX (cosmology AMR), S3D (combustion), plus the
Figure-1 sets (QMCPack, ISABEL, CESM-ATM, EXAFEL).  Production files are
hundreds of MB to 10 GB; this package generates *statistically matched*
synthetic fields at laptop scale while the registry carries the paper-scale
metadata for the energy model.

Each generator is calibrated so its compressibility signature — how CR falls
as the bound tightens, per Table III — reproduces the paper's shape; see the
module docstrings for the per-dataset rationale.

The names below load on first access.
"""

from repro import _lazy

_EXPORTS = {
    "repro.data.registry": ("DATASETS", "DatasetSpec", "dataset_names", "generate", "get_dataset"),
    "repro.data.inflate": ("inflate",),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
