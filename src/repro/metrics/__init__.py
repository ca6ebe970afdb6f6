"""Quality, error, ratio and statistics metrics used throughout the study.

The names below load on first access, so a caller of the error checks does
not load the quality, ratio or statistics modules.
"""

from repro import _lazy

_EXPORTS = {
    "repro.metrics.error": ("check_error_bound", "max_abs_error", "max_rel_error", "value_range"),
    "repro.metrics.quality": ("autocorrelation", "mse", "nrmse", "psnr"),
    "repro.metrics.ratio": ("bitrate", "compression_ratio"),
    "repro.metrics.stats": ("AdaptiveRepeater", "MeasurementSummary", "mean_ci"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
