"""Observability: spans, metrics, and Perfetto-ready trace exports.

Public surface::

    from repro.obs import Tracer, tracing, active_tracer
    from repro.obs import MetricsRegistry
    from repro.obs import write_trace, load_trace, summarize

Instrumentation sites across the runtime (engine, store, codecs) and the
simulators (scheduler, lifecycle, pipeline) guard on
:func:`active_tracer` returning ``None`` — tracing is strictly opt-in,
costs nothing when off, and never changes behaviour when on (store keys,
golden fixtures, and simulated timelines stay bit-identical either way).

The names below load on first access, so the codecs' tracer check loads
:mod:`repro.obs.trace` alone, not the exporters.
"""

from repro import _lazy

_EXPORTS = {
    "repro.obs.bridge": ("ProgressPrinter", "TracerBridge", "compose"),
    "repro.obs.export": (
        "chrome_trace", "load_trace", "span_dict", "summarize", "write_chrome_trace",
        "write_jsonl", "write_trace",
    ),
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.trace": ("Span", "Tracer", "activate", "active_tracer", "tracing"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
