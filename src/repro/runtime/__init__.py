"""repro.runtime — the parallel sweep engine and memoizing result store.

The runtime layer separates *what* an experiment grid is from *how* it is
evaluated:

- :mod:`~repro.runtime.registry` — the experiment-kind plugin registry:
  one :class:`~repro.runtime.registry.ExperimentKind` declaration per kind
  covers spec fields + validation, grid expansion, evaluate entrypoints,
  the record class + JSON schema, CLI flags/tables, and the conformance
  battery contract (see ``docs/user-guide/experiments.md``);
- :class:`~repro.runtime.spec.SweepSpec` — a declarative, JSON-round-trip
  grid over (datasets, codecs, error bounds, CPUs, I/O libraries);
- :class:`~repro.runtime.store.ResultStore` — content-addressed
  memoization of evaluated points, in memory and optionally on disk;
- :class:`~repro.runtime.engine.SweepEngine` — expansion, deduplication,
  and serial / thread-pool / process-pool execution with progress events;
- :mod:`~repro.runtime.benchmark` — the kernel benchmark harness behind
  ``repro bench kernels`` and ``BENCH_kernels.json`` (perf trajectory).

Every ``Testbed`` sweep driver and every advisor (``TradeoffAnalyzer``
included) delegate here, so repeated points are computed once per store.
See ``docs/user-guide/sweeps.md`` for a guided tour.

The names below load on first access: importing the package, or
``registry``, ``spec`` or ``store`` alone, does not import the engine, the
fault injector or the benchmark harness, and the engine imports the
process pool only when it builds one.
"""

from repro import _lazy

_EXPORTS = {
    "repro.runtime.benchmark": (
        "KERNELS", "KernelInputs", "KernelSpec", "compare_docs", "kernel_inputs",
        "run_and_report", "run_kernels", "validate_doc",
    ),
    "repro.runtime.engine": ("EXECUTORS", "ON_ERROR", "EngineStats", "SweepEngine", "SweepEvent"),
    "repro.runtime.faults": (
        "FailedPoint", "FaultInjector", "InjectedFault", "RetryPolicy", "error_chain",
    ),
    "repro.runtime.registry": (
        "ExperimentKind", "all_kinds", "get_kind", "kind_names", "record_schema",
        "register", "register_record", "unregister",
    ),
    "repro.runtime.spec": ("SWEEP_KINDS", "GridPoint", "SweepSpec"),
    "repro.runtime.store": (
        "CACHE_VERSION", "ResultStore", "decode_record", "default_store", "encode_record",
        "point_key", "testbed_fingerprint",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
