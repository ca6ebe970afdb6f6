"""What a path imports: the lazily exported package API, and the modules an
io sweep, a dataset write/read and a cluster solve load.

Each case runs in a fresh interpreter, because this test process has
already imported most of the package (``conftest`` registers the cluster
and dataset kinds).
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


@pytest.mark.parametrize("name", ["repro", "repro.core", "repro.runtime"])
def test_every_exported_name_resolves_and_is_listed(name):
    doc = fresh(EXPORTS.format(name=name))
    assert doc["unlisted"] == []
    assert doc["unresolved"] == []
    assert doc["star_missing"] == []
    assert doc.get("error") == f"module {name!r} has no attribute 'no_such_name'"


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


def test_cluster_solve_loads_no_engine_dataset_advisor_or_process_pool():
    forbidden = tuple(m for m in NOT_FOR_IO if m not in ("repro.cluster", "repro.workloads"))
    assert loaded(forbidden + ("repro.runtime.engine", "repro.dataset"), CLUSTER_SOLVE) == []
