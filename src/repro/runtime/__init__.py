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
"""

from repro.runtime.benchmark import (
    KERNELS,
    KernelInputs,
    KernelSpec,
    compare_docs,
    kernel_inputs,
    run_and_report,
    run_kernels,
    validate_doc,
)
from repro.runtime.engine import EXECUTORS, ON_ERROR, EngineStats, SweepEngine, SweepEvent
from repro.runtime.faults import (
    FailedPoint,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    SweepManifest,
    error_chain,
    sweep_id,
)
from repro.runtime.registry import (
    ExperimentKind,
    all_kinds,
    get_kind,
    kind_names,
    record_schema,
    register,
    register_record,
    unregister,
)
from repro.runtime.spec import SWEEP_KINDS, GridPoint, SweepSpec
from repro.runtime.store import (
    CACHE_VERSION,
    ResultStore,
    decode_record,
    default_store,
    encode_record,
    point_key,
    testbed_fingerprint,
)

__all__ = [
    "CACHE_VERSION",
    "EXECUTORS",
    "KERNELS",
    "ON_ERROR",
    "SWEEP_KINDS",
    "EngineStats",
    "ExperimentKind",
    "FailedPoint",
    "FaultInjector",
    "GridPoint",
    "InjectedFault",
    "KernelInputs",
    "KernelSpec",
    "ResultStore",
    "RetryPolicy",
    "SweepEngine",
    "SweepEvent",
    "SweepManifest",
    "SweepSpec",
    "all_kinds",
    "compare_docs",
    "decode_record",
    "default_store",
    "encode_record",
    "error_chain",
    "get_kind",
    "kernel_inputs",
    "kind_names",
    "point_key",
    "record_schema",
    "register",
    "register_record",
    "run_and_report",
    "run_kernels",
    "sweep_id",
    "testbed_fingerprint",
    "unregister",
]
