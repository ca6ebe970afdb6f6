"""The telemetry subsystem: spans, metrics, exporters, and the hard
tracing contracts — zero behavior change when disabled, bit-identical
records and store artifacts when enabled."""

import importlib.util
import json
import pathlib
import threading

import pytest

from repro.cli import main
from repro.core.experiments import Testbed
from repro.obs import (
    MetricsRegistry,
    ProgressPrinter,
    Span,
    Tracer,
    TracerBridge,
    activate,
    active_tracer,
    chrome_trace,
    compose,
    load_trace,
    summarize,
    tracing,
    write_trace,
)
from repro.runtime.engine import SweepEngine, SweepEvent
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

SMALL = dict(datasets=("cesm",), codecs=("szx", "sz3"), bounds=(1e-2,))

CLUSTER_SCENARIO = "nodes=8; a=ranks:96,codec:szx; b=ranks:96,submit:30"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def testbed():
    return Testbed(scale="tiny")


class TestTracer:
    def test_wall_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("work", track="t", op="x"):
            pass
        (span,) = tracer.spans
        assert span.name == "work" and span.clock == "wall"
        assert span.t1 >= span.t0 >= 0.0
        assert span.args == {"op": "x"}

    def test_failed_span_still_recorded_with_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans
        assert span.args["error"] == "ValueError"

    def test_virtual_spans_and_instants(self):
        tracer = Tracer()
        tracer.add_span("job", "tenant:a", 2.0, 7.5, energy=1.0)
        tracer.instant("grant", "sched", 2.0)
        a, b = tracer.spans
        assert a.clock == "virtual" and a.duration_s == 5.5
        assert b.t0 == b.t1 == 2.0

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            Tracer().add_span("x", "t", 0.0, 1.0, clock="cpu")

    def test_tracks_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.add_span("a", "z", 0, 1)
        tracer.add_span("b", "a", 0, 1)
        tracer.add_span("c", "z", 1, 2)
        assert tracer.tracks() == ["z", "a"]
        assert tracer.tracks(clock="wall") == []

    def test_activation_is_exclusive(self):
        assert active_tracer() is None
        with tracing() as tracer:
            assert active_tracer() is tracer
            with pytest.raises(RuntimeError, match="already active"):
                with activate(Tracer()):
                    pass
        assert active_tracer() is None

    def test_deactivates_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with tracing():
                raise RuntimeError("boom")
        assert active_tracer() is None


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.gauge("mbps").set(12.5)
        for v in (1.0, 2.0, 3.0):
            reg.histogram("lat").observe(v)
        snap = reg.snapshot()
        assert snap["hits"] == 3
        assert snap["mbps"] == 12.5
        assert snap["lat"]["count"] == 3 and snap["lat"]["mean"] == 2.0
        assert snap["lat"]["min"] == 1.0 and snap["lat"]["max"] == 3.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_empty_histogram_snapshot(self):
        snap = MetricsRegistry().histogram("h").snapshot()
        assert snap == {"count": 0, "sum": 0.0, "min": None, "max": None,
                        "mean": None, "stddev": None}

    def test_merge_is_idempotent_not_additive(self):
        reg = MetricsRegistry()
        stats = {"computed": 4, "mb_per_s": 9.5, "ok": True}
        reg.merge("engine", stats)
        reg.merge("engine", stats)  # same snapshot twice must not double
        snap = reg.snapshot()
        assert snap["engine.computed"] == 4
        assert snap["engine.mb_per_s"] == 9.5
        assert "engine.ok" not in snap  # bools are not counters


class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        tracer.add_span("job:a", "tenant:a", 0.0, 0.1234567890123456,
                        energy_j=3.0000000000000004)
        tracer.instant("grant", "sched", 0.0, backfilled=False)
        with tracer.span("real", track="w"):
            pass
        tracer.metrics.counter("n").inc(7)
        return tracer

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_round_trip_is_bit_identical(self, tmp_path, suffix):
        tracer = self._tracer()
        path = tmp_path / f"trace{suffix}"
        n = write_trace(tracer, path)
        assert n == len(tracer.spans)
        spans, metrics = load_trace(path)
        assert spans == tracer.spans  # exact floats survive JSON
        assert metrics == {"n": 7}

    def test_chrome_document_structure(self):
        doc = chrome_trace(self._tracer())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        # one process per clock domain, one thread per track
        assert {(m["name"], m["args"]["name"]) for m in meta} == {
            ("process_name", "virtual clock"), ("process_name", "wall clock"),
            ("thread_name", "tenant:a"), ("thread_name", "sched"),
            ("thread_name", "w"),
        }
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        job = next(e for e in complete if e["name"] == "job:a")
        assert job["pid"] == 2  # virtual clock
        assert job["args"]["t1_s"] == 0.1234567890123456
        assert job["args"]["energy_j"] == 3.0000000000000004
        assert instants[0]["s"] == "t"
        assert doc["otherData"]["metrics"] == {"n": 7}

    def test_summarize_mentions_tracks_and_metrics(self):
        tracer = self._tracer()
        text = summarize(tracer.spans, tracer.metrics.snapshot())
        assert "virtual clock" in text and "wall clock" in text
        assert "tenant:a" in text and "sim s" in text
        assert "n" in text

    def test_check_trace_schema_tool(self, tmp_path):
        checker = load_tool("check_trace_schema")
        good = tmp_path / "good.json"
        write_trace(self._tracer(), good)
        assert checker.check(good) == []
        assert checker.main(["check_trace_schema.py", str(good)]) == 0

        doc = json.loads(good.read_text())
        for event in doc["traceEvents"]:
            event.get("args", {}).pop("t0_s", None)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        errors = checker.check(bad)
        assert errors and any("t0_s" in e for e in errors)
        assert checker.main(["check_trace_schema.py", str(bad)]) == 1


class TestBridge:
    def test_bridge_counts_and_marks(self):
        tracer = Tracer()
        bridge = TracerBridge(tracer)
        bridge(SweepEvent(kind="start", total=2))
        bridge(SweepEvent(kind="point", index=0, op="dvfs", cached=True,
                          total=2, wall_time_s=0.5))
        bridge(SweepEvent(kind="retry", index=1, op="dvfs", attempt=1,
                          error="Timeout", total=2, wall_time_s=0.6))
        bridge(SweepEvent(kind="point", index=1, op="dvfs", total=2,
                          wall_time_s=0.9, attempt_s=0.3))
        bridge(SweepEvent(kind="finish", total=2))
        snap = tracer.metrics.snapshot()
        assert snap["sweep.cache_hits"] == 1
        assert snap["sweep.computed"] == 1
        assert snap["sweep.retries"] == 1
        assert snap["engine.attempt_s"]["count"] == 1
        names = [s.name for s in tracer.spans]
        assert names == ["start", "point[0]", "retry[1]", "point[1]", "finish"]
        # instants land at the event's engine-relative wall time
        assert tracer.spans[1].t0 == 0.5

    def test_progress_printer_renders_tallies(self):
        import io

        out = io.StringIO()
        printer = ProgressPrinter(stream=out)
        printer(SweepEvent(kind="start", total=3))
        printer(SweepEvent(kind="point", index=0, cached=True, total=3))
        printer(SweepEvent(kind="failed", index=1, error="X", total=3))
        printer(SweepEvent(kind="finish", total=3))
        text = out.getvalue()
        assert "sweep 2/3" in text
        assert "cached 1" in text and "failed 1" in text
        assert text.endswith("\n")

    def test_progress_printer_survives_closed_stream(self):
        import io

        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        stream.close()
        printer(SweepEvent(kind="start", total=1))  # must not raise

    def test_compose(self):
        seen = []
        assert compose(None, None) is None
        single = seen.append
        assert compose(None, single) is single
        fan = compose(seen.append, seen.append)
        fan("e")
        assert seen == ["e", "e"]


class TestEngineIntegration:
    def test_events_carry_wall_time_and_attempt_duration(self, testbed):
        events = []
        SweepEngine(testbed=testbed, store=ResultStore(),
                    on_event=events.append).run(SweepSpec(kind="quality", **SMALL))
        points = [e for e in events if e.kind == "point"]
        assert points and all(e.attempt_s > 0.0 for e in points)
        walls = [e.wall_time_s for e in events]
        assert all(w >= 0.0 for w in walls)
        assert walls == sorted(walls)  # stamped by one run clock

    def test_traced_run_spans_and_metrics(self, testbed):
        spec = SweepSpec(kind="quality", **SMALL)
        with tracing() as tracer:
            SweepEngine(testbed=testbed, store=ResultStore()).run(spec)
        names = [s.name for s in tracer.spans]
        assert "evaluate:roundtrip" in names  # the quality kind's op
        assert "store.put" in names and "store.get" in names
        snap = tracer.metrics.snapshot()
        assert snap["engine.computed"] == 2
        assert snap["store.entries"] == 2

    def test_codec_phases_are_traced(self):
        import numpy as np

        from repro.compressors import get_compressor

        comp = get_compressor("szx")
        data = np.linspace(0.0, 1.0, 512, dtype=np.float32)
        with tracing() as tracer:
            buf = comp.compress(data, 1e-3)
            comp.decompress(buf)
        names = [s.name for s in tracer.spans]
        assert "compress:szx" in names and "decompress:szx" in names
        (cspan,) = [s for s in tracer.spans if s.name == "compress:szx"]
        # in_nbytes counts what enters the codec impl (post dtype widening)
        assert cspan.track == "codec" and cspan.args["in_nbytes"] >= data.nbytes
        assert cspan.args["out_nbytes"] > 0

    def test_disabled_tracer_changes_nothing(self, testbed, tmp_path):
        """The paramount contract: tracing on/off is invisible in artifacts."""
        spec = SweepSpec(kind="quality", **SMALL)
        plain = SweepEngine(
            testbed=testbed, store=ResultStore(cache_dir=tmp_path / "off")
        ).run(spec)
        with tracing() as tracer:
            traced = SweepEngine(
                testbed=testbed, store=ResultStore(cache_dir=tmp_path / "on")
            ).run(spec)
        assert len(tracer.spans) > 0
        assert plain == traced
        # identical store keys AND identical bytes on disk
        off = sorted(p.name for p in (tmp_path / "off").glob("*.json"))
        on = sorted(p.name for p in (tmp_path / "on").glob("*.json"))
        assert off == on and off
        for name in off:
            assert (tmp_path / "off" / name).read_bytes() == \
                (tmp_path / "on" / name).read_bytes()
        # and once the tracer is gone, a fresh run records no spans at all
        assert active_tracer() is None
        before = len(tracer.spans)
        SweepEngine(testbed=testbed, store=ResultStore()).run(spec)
        assert len(tracer.spans) == before


class TestVirtualInstrumentation:
    def test_lifecycle_spans_match_interval_timeline(self):
        from repro.workloads.checkpoint import CheckpointSpec
        from repro.workloads.lifecycle import run_lifecycle, trace_intervals

        spec = CheckpointSpec(work_s=100.0, interval_s=50.0, ckpt_s=5.0,
                              restart_s=2.0, mttf_s=float("inf"))
        plain = run_lifecycle(spec)
        with tracing() as tracer:
            traced = run_lifecycle(spec)
            assert len(tracer.spans) == 0  # the run itself emits nothing
            trace_intervals(tracer, traced.intervals, "tenant:x")
        assert traced.intervals == plain.intervals  # tracing never perturbs
        spans = [s for s in tracer.spans if s.track == "tenant:x"]
        assert len(spans) == len(plain.intervals)
        for span, iv in zip(spans, plain.intervals):
            assert (span.name, span.t0, span.t1) == \
                (iv.label, iv.start_s, iv.end_s)

    def test_pipeline_plan_emits_stage_and_pfs_tracks(self):
        from repro.iolib.hdf5_like import HDF5Like
        from repro.iolib.pfs import PFSModel
        from repro.iolib.pipeline import plan_pipelined_write

        kwargs = dict(out_nbytes=1 << 20, compress_s=0.5,
                      pfs=PFSModel(), cost=HDF5Like.cost, n_chunks=4)
        plain = plan_pipelined_write(**kwargs)
        with tracing() as tracer:
            traced = plan_pipelined_write(**kwargs)
        assert traced == plain
        stage = [s for s in tracer.spans if s.track == "pipeline:stage"]
        pfs = [s for s in tracer.spans if s.track == "pipeline:pfs"]
        assert len(stage) == plain.n_chunks
        whole = next(s for s in pfs if s.name == "pipelined-write")
        assert whole.args["total_time_s"] == plain.total_time_s
        assert whole.args["overlap_saving_s"] == plain.overlap_saving_s


class TestStoreStatsConcurrency:
    def test_counters_consistent_under_two_threads(self):
        store = ResultStore()
        n = 200

        def writer():
            for i in range(n):
                store.put(f"w{i:03d}" * 16, {"i": i})

        def reader():
            for i in range(n):
                store.get(f"r{i:03d}" * 16)  # all misses

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats
        assert stats["entries"] == n
        assert stats["misses"] == n
        assert stats["memory_hits"] == 0

    def test_quarantine_counted_once_across_two_threads(self, tmp_path):
        n = 20
        keys = [f"c{i:03d}" * 16 for i in range(n)]
        for key in keys:
            (tmp_path / f"{key}.json").write_text("{corrupt")

        store = ResultStore(cache_dir=tmp_path)
        barrier = threading.Barrier(2)

        def reader():
            barrier.wait()
            for key in keys:
                assert store.get(key) is None

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # both threads raced over every corrupt entry, but each file is
        # renamed (and counted) exactly once
        assert store.stats["corrupt_quarantined"] == n
        assert len(list(tmp_path.glob("*.corrupt"))) == n


class TestClusterTraceBitIdentity:
    def test_virtual_tracks_reproduce_makespan_and_energy(self, tmp_path,
                                                          testbed):
        """Acceptance criterion: the traced cluster run's tenant tracks sum
        to the same makespan/energy as the untraced run, bit-identically —
        recovered from the trace file alone."""
        spec = SweepSpec(kind="cluster", datasets=("nyx",), cpus=("plat8160",),
                         io_libraries=("hdf5",), scenario=CLUSTER_SCENARIO)
        (plain,) = SweepEngine(testbed=testbed, store=ResultStore()).run(spec)
        with tracing() as tracer:
            (traced,) = SweepEngine(testbed=testbed,
                                    store=ResultStore()).run(spec)
        assert plain == traced

        path = tmp_path / "cluster.json"
        write_trace(tracer, path)
        spans, _ = load_trace(path)
        jobs = [s for s in spans if s.name.startswith("job:")]
        assert {s.track for s in jobs} == {"tenant:a", "tenant:b"}
        assert max(s.args["finish_s"] for s in jobs) == plain.makespan_s
        assert sum(s.args["total_energy_j"] for s in jobs) == \
            plain.total_energy_j
        # the Gantt structure is there: scheduler + per-tenant virtual tracks
        virtual_tracks = {s.track for s in spans if s.clock == "virtual"}
        assert {"scheduler", "fixed-point"} <= virtual_tracks
        # and the file passes the CI schema gate
        assert load_tool("check_trace_schema").check(path) == []


class TestCLI:
    ARGS = ["sweep", "--kind", "quality", "--datasets", "cesm",
            "--codecs", "szx", "--bounds", "1e-2", "--scale", "tiny"]

    def test_sweep_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        err = capsys.readouterr().err
        assert f"-> {path}" in err
        spans, metrics = load_trace(path)
        assert any(s.name == "evaluate:roundtrip" for s in spans)
        assert metrics["engine.computed"] == 1

    def test_sweep_progress_flag(self, capsys):
        assert main(self.ARGS + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "sweep 1/1" in err

    def test_trace_summarize_command(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out and "store" in out

    def test_trace_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert main(["trace", "summarize", str(tmp_path / "missing.json")]) == 1

    def test_cluster_run_trace(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        assert main(["cluster", "run", "--scenario", CLUSTER_SCENARIO,
                     "--scale", "tiny", "--trace", str(path)]) == 0
        spans, _ = load_trace(path)
        assert any(s.track == "tenant:a" for s in spans)
        assert load_tool("check_trace_schema").check(path) == []

    def test_sweep_json_meta_excluded_from_schema_check(self, tmp_path,
                                                        capsys):
        assert main(self.ARGS + ["--json"]) == 0
        out = capsys.readouterr().out
        wire = json.loads(out)
        assert "__meta__" in wire[-1]
        path = tmp_path / "sweep.json"
        path.write_text(out)
        checker = load_tool("check_record_schemas")
        assert checker.check("quality", path) == []


class TestRecordSchemaChecker:
    """``check_record_schemas.py`` gates every kind's sweep JSON and the
    benchmark document."""

    def _sweep_json(self, tmp_path, capsys, argv, name):
        assert main(argv) == 0
        path = tmp_path / name
        path.write_text(capsys.readouterr().out)
        return str(path)

    KIND_ARGV = {
        "dvfs": ["--cpus", "plat8160", "--freqs", "2.1"],
        "pipeline": ["--io-libraries", "hdf5", "--n-chunks", "2"],
        "checkpoint": ["--io-libraries", "hdf5", "--mttfs", "inf",
                       "--work", "600"],
    }

    @pytest.mark.parametrize("kind", list(KIND_ARGV))
    def test_sweep_records(self, tmp_path, capsys, kind):
        path = self._sweep_json(tmp_path, capsys, [
            "sweep", "--kind", kind, "--datasets", "cesm", "--codecs", "szx",
            "--bounds", "1e-2", "--scale", "tiny", *self.KIND_ARGV[kind],
            "--json",
        ], f"{kind.upper()}.json")
        checker = load_tool("check_record_schemas")
        assert checker.check(kind, path) == []
        assert checker.main(["check_record_schemas.py", kind, path]) == 0

    def test_bench_doc(self, tmp_path):
        from repro.runtime.benchmark import SCHEMA_VERSION

        doc = {
            "schema_version": SCHEMA_VERSION,
            "created": "2026-08-08T00:00:00Z",
            "repro_version": "0",
            "quick": True,
            "results": [{
                "kernel": "huffman_decode", "dataset": "cesm",
                "n_symbols": 16, "n_bytes": 64, "seconds_per_call": 1e-4,
                "mb_per_s": 1.0, "sym_per_s": 1.0, "calls": 2,
            }],
            "history": [],
        }
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps(doc))
        checker = load_tool("check_record_schemas")
        assert checker.check("bench", path) == []
        assert checker.main(["check_record_schemas.py", "bench", str(path)]) == 0
        # a broken doc still fails
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        assert checker.check("bench", path) != []
        assert checker.main(["check_record_schemas.py", "bench", str(path)]) == 1
