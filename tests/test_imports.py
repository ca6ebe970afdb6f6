"""What a path imports: the lazily exported package API, and the modules an
io sweep, a dataset write/read, a cluster solve and the CLI load.

Each case runs in a fresh interpreter, because this test process has
already imported most of the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path; returns
    the JSON object it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# -- the public API of the lazily exporting packages --------------------------

EXPORTS = """
import importlib, json
package = importlib.import_module({name!r})
listed = set(dir(package))
doc = {{"unlisted": [n for n in package.__all__ if n not in listed]}}
doc["unresolved"] = [n for n in package.__all__ if getattr(package, n, None) is None]
star = {{}}
exec("from {name} import *", star)
doc["star_missing"] = [n for n in package.__all__ if n not in star]
try:
    package.no_such_name
except AttributeError as exc:
    doc["error"] = str(exc)
print(json.dumps(doc))
"""


LAZY_PACKAGES = ["repro", "repro.cluster", "repro.core", "repro.data", "repro.dataset",
                 "repro.iolib", "repro.metrics", "repro.obs", "repro.runtime"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    doc = fresh(EXPORTS.format(name=name))
    assert doc["unlisted"] == []
    assert doc["unresolved"] == []
    assert doc["star_missing"] == []
    assert doc.get("error") == f"module {name!r} has no attribute 'no_such_name'"


def test_an_export_named_like_its_submodule_stays_the_export():
    doc = fresh("""
import json
import repro.data.inflate
from repro.data import inflate
print(json.dumps({"callable": callable(inflate)}))
""")
    assert doc["callable"]


# -- the modules each path loads ----------------------------------------------

#: Loaded neither by an io sweep nor by a dataset write/read.
NOT_FOR_IO = (
    "repro.cluster",
    "repro.workloads",
    "repro.core.advisor",
    "repro.core.tradeoff",
    "repro.runtime.benchmark",
    "concurrent.futures.process",
    "multiprocessing",
)

LOADED = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""

IO_SWEEP = """
from repro.core.experiments import Testbed
from repro.runtime import ResultStore, SweepEngine, SweepSpec

spec = SweepSpec(kind="io", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                 cpus=("plat8160",), io_libraries=("hdf5",))
assert spec.points()
engine = SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore(), executor="serial")
assert engine.run(spec)
"""

DATASET_IO = """
import tempfile
from pathlib import Path

import numpy as np
from repro.dataset import Dataset, read, write

dataset = Dataset.from_arrays({"x": np.random.default_rng(0).random((8, 8, 8))})
with tempfile.TemporaryDirectory() as tmp:
    write(dataset, Path(tmp) / "x", "lossy,sz3,rel,1e-3", io_library="hdf5")
    assert read(Path(tmp) / "x")["x"].data.shape == (8, 8, 8)
"""

DATASET_IO_CHUNKED = DATASET_IO.replace('io_library="hdf5"', 'io_library="netcdf", n_chunks=4')

#: Loaded by neither a whole nor a chunked dataset write/read: the sweep
#: registry, the Testbed, the PFS and pipeline models, the lossless codecs,
#: the trace exporters and the metrics the façade does not compute.
NOT_FOR_DATASET_IO = (
    "repro.runtime",
    "repro.dataset.kind",
    "repro.core",
    "repro.iolib.pfs",
    "repro.iolib.pipeline",
    "repro.compressors.lossless",
    "repro.obs.export",
    "repro.data.inflate",
    "repro.metrics.quality",
    "repro.metrics.ratio",
    "repro.metrics.stats",
)

WARM_IO_SWEEP = """
import tempfile

from repro.core.experiments import Testbed
from repro.runtime import ResultStore, SweepEngine, SweepSpec

spec = SweepSpec(kind="io", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                 cpus=("plat8160",), io_libraries=("hdf5",))
testbed = Testbed(scale="tiny")
with tempfile.TemporaryDirectory() as cache:
    cold = SweepEngine(testbed=testbed, store=ResultStore(cache), executor="serial")
    cold.run(spec)
    warm = SweepEngine(testbed=testbed, store=ResultStore(cache), executor="serial")
    warm.run(spec)
    assert warm.stats.computed == 0 and warm.stats.cache_hits == len(spec.points())
"""

KINDS_BY_NAME = """
from repro.runtime import SweepSpec, get_kind

assert get_kind("dataset").name == "dataset"
assert get_kind("cluster").name == "cluster"
spec = SweepSpec(kind="dataset", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                 compression="lossy,szx,rel,1e-3")
assert spec.points()[0].op == "dataset_point"
"""

CLUSTER_SOLVE = """
from repro.cluster.scheduler import ClusterSpec, JobSpec, simulate_cluster
from repro.core.experiments import Testbed

testbed = Testbed(scale="tiny")
campaign = testbed._campaign("cesm", "plat8160", "hdf5")
spec = ClusterSpec(n_nodes=2, jobs=(JobSpec("a", 8, "szx", work_s=2.0),
                                    JobSpec("b", 8, None, submit_s=1.0)))
ratios = {"a": testbed.roundtrip("cesm", "szx", 1e-3).ratio}
assert simulate_cluster(spec, campaign, ratios).makespan_s > 0
"""


def loaded(forbidden, body):
    """The ``forbidden`` modules (or their submodules) that ``body`` loads
    in a fresh interpreter."""
    modules = fresh(LOADED.format(body=body))
    return sorted({name for name in forbidden for module in modules
                   if module == name or module.startswith(name + ".")})


@pytest.mark.parametrize("body", [IO_SWEEP, DATASET_IO], ids=["io-sweep", "dataset-io"])
def test_io_paths_load_no_cluster_advisor_bench_or_process_pool(body):
    assert loaded(NOT_FOR_IO, body) == []


@pytest.mark.parametrize("body", [DATASET_IO, DATASET_IO_CHUNKED], ids=["whole", "chunked"])
def test_dataset_io_loads_no_registry_testbed_pfs_lossless_or_exporter(body):
    assert loaded(NOT_FOR_DATASET_IO, body) == []


def test_warm_io_sweep_loads_no_kind_plugin():
    assert loaded(("repro.dataset", "repro.cluster"), WARM_IO_SWEEP) == []


def test_plugin_kinds_resolve_by_name_after_importing_only_the_runtime():
    assert set(loaded(("repro.dataset.kind", "repro.cluster.kind"), KINDS_BY_NAME)) == {
        "repro.cluster.kind", "repro.dataset.kind"}


def test_importing_the_cli_loads_no_scheduler_costs_or_workloads():
    forbidden = ("repro.cluster.scheduler", "repro.cluster.costs", "repro.workloads")
    assert loaded(forbidden, "import repro.cli") == []


def test_cluster_solve_loads_no_engine_dataset_advisor_or_process_pool():
    forbidden = tuple(m for m in NOT_FOR_IO if m not in ("repro.cluster", "repro.workloads"))
    assert loaded(forbidden + ("repro.runtime.engine", "repro.dataset"), CLUSTER_SOLVE) == []


# -- the tuner builds a testbed only for catalogue variables ------------------


def test_tuner_without_a_testbed_matches_a_tiny_testbed_bit_for_bit():
    import numpy as np

    from repro.core.experiments import Testbed
    from repro.dataset import AutoTuner, Dataset

    rng = np.random.default_rng(3)
    adhoc = Dataset.from_arrays({"a": rng.random((12, 9, 8)),
                                 "b": np.cumsum(rng.standard_normal(700)).astype(np.float32)})
    catalogue = Dataset.from_catalog(["cesm"], scale="tiny")
    spec = "a:lossy,sz3,rel,1e-3;auto,rel,1e-2"
    for dataset, builds in ((adhoc, False), (catalogue, True)):
        grid = dict(codecs=("szx", "sz3"), bounds=(1e-2, 1e-3))
        lazy, given = AutoTuner(**grid), AutoTuner(testbed=Testbed(scale="tiny"), **grid)
        for n_chunks in (1, 3):
            got, want = lazy.tune(dataset, spec, n_chunks), given.tune(dataset, spec, n_chunks)
            assert repr(got.entries) == repr(want.entries)
            assert got.streams == want.streams
        assert (lazy._testbed is not None) is builds
