"""The sweep runtime: specs, stable keys, the store, and the engine.

The load-bearing guarantees under test:

- grid expansion matches the seed driver loops point for point;
- point keys are stable — across keyword order, across processes — and
  sensitive to every parameter and to the testbed fingerprint;
- the store's hit/miss accounting and its disk layer round-trip records
  exactly;
- a parallel engine run produces records *equal* to the serial path; and
- a repeated ``TradeoffAnalyzer.evaluate`` over a warm store performs zero
  new testbed evaluations (the PR's acceptance criterion).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core.experiments import IOPoint, RoundtripRecord, SerialPoint, Testbed
from repro.core.tradeoff import TradeoffAnalyzer
from repro.errors import ConfigurationError
from repro.runtime.engine import SweepEngine, SweepEvent
from repro.runtime.spec import GridPoint, SweepSpec
from repro.runtime.store import ResultStore, decode_record, encode_record
from repro.runtime.store import point_key as _point_key
from repro.runtime.store import testbed_fingerprint as _fingerprint

SMALL = dict(datasets=("cesm",), codecs=("szx", "sz3"), bounds=(1e-2, 1e-3))


@pytest.fixture(scope="module")
def tiny_testbed():
    return Testbed(scale="tiny")


@pytest.fixture()
def engine(tiny_testbed):
    """A fresh engine per test: isolated store, isolated counters."""
    return SweepEngine(testbed=tiny_testbed, store=ResultStore())


class TestSweepSpec:
    def test_serial_expansion_matches_seed_loop_order(self):
        spec = SweepSpec(kind="serial", cpus=("max9480", "plat8160"), **SMALL)
        points = spec.points()
        expected = [
            ("serial_point", cpu, ds, codec, eps)
            for cpu in ("max9480", "plat8160")
            for ds in SMALL["datasets"]
            for codec in SMALL["codecs"]
            for eps in SMALL["bounds"]
        ]
        got = [
            (p.op, p.as_kwargs()["cpu_name"], p.as_kwargs()["dataset"],
             p.as_kwargs()["codec"], p.as_kwargs()["rel_bound"])
            for p in points
        ]
        assert got == expected

    def test_io_expansion_baseline_first(self):
        spec = SweepSpec(kind="io", io_libraries=("hdf5",), **SMALL)
        points = spec.points()
        first = points[0].as_kwargs()
        assert first["codec"] is None and first["rel_bound"] is None
        assert len(points) == 1 + 2 * 2
        no_base = SweepSpec(kind="io", io_libraries=("hdf5",), include_baseline=False, **SMALL)
        assert len(no_base.points()) == 4

    def test_quality_and_lossless_kinds(self):
        q = SweepSpec(kind="quality", **SMALL).points()
        assert all(p.op == "roundtrip" for p in q)
        ll = SweepSpec(
            kind="lossless", datasets=("cesm",), codecs=("sz2",), lossless_codecs=("zstd",)
        ).points()
        assert [p.as_kwargs()["rel_bound"] for p in ll] == [0.0, 1e-3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="banana")

    def test_json_round_trip(self):
        spec = SweepSpec(kind="io", io_libraries=("netcdf",), **SMALL)
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"kind": "serial", "warp_factor": 9})

    def test_lists_normalised_to_tuples(self):
        spec = SweepSpec(kind="serial", datasets=["cesm"], bounds=[1e-3])
        assert spec.datasets == ("cesm",) and spec.bounds == (1e-3,)


class TestPointKey:
    FP = {"scale": "tiny", "pfs": "PFSModel()"}

    def test_keyword_order_irrelevant(self):
        a = GridPoint.make("serial_point", dataset="cesm", codec="szx")
        b = GridPoint.make("serial_point", codec="szx", dataset="cesm")
        assert a == b
        assert _point_key(a.op, a.as_kwargs(), self.FP) == _point_key(
            b.op, b.as_kwargs(), self.FP
        )

    def test_sensitive_to_params_and_fingerprint(self):
        base = _point_key("roundtrip", {"codec": "szx", "rel_bound": 1e-3}, self.FP)
        assert base != _point_key("roundtrip", {"codec": "szx", "rel_bound": 1e-4}, self.FP)
        assert base != _point_key("serial_point", {"codec": "szx", "rel_bound": 1e-3}, self.FP)
        assert base != _point_key(
            "roundtrip", {"codec": "szx", "rel_bound": 1e-3}, {**self.FP, "scale": "bench"}
        )

    def test_stable_across_process_boundaries(self, tiny_testbed):
        """The same point hashes identically in a separate interpreter."""
        fp = _fingerprint(tiny_testbed)
        params = {"dataset": "cesm", "codec": "szx", "rel_bound": 1e-3}
        local = _point_key("roundtrip", params, fp)
        script = (
            "import sys, json\n"
            "from repro.core.experiments import Testbed\n"
            "from repro.runtime.store import point_key, testbed_fingerprint\n"
            "fp = testbed_fingerprint(Testbed(scale='tiny'))\n"
            "params = json.loads(sys.argv[1])\n"
            "print(point_key('roundtrip', params, fp))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(params)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == local

    def test_key_is_the_hash_of_the_whole_canonical_document(self, tiny_testbed):
        """Keys written out piece by piece hash the bytes of one canonical
        JSON document of the point, so no store key moves."""
        import hashlib

        from repro.runtime.store import (
            CACHE_VERSION, _canonical_json, _canonical_params, point_keys,
        )

        fp = _fingerprint(tiny_testbed)
        points = [
            ("io_point", {"dataset": "cesm", "codec": None, "rel_bound": None}),
            ("roundtrip", {"rel_bound": float("-inf"), "codec": "szé"}),
            ("dataset_point", {"codecs": ("szx", "sz3"), "bounds": [1e-3, 2.5],
                               "nested": {"b": 1, "a": [True, "x"]}}),
        ]
        expected = [
            hashlib.sha256(_canonical_json({
                "version": CACHE_VERSION, "op": op,
                "params": _canonical_params(params), "testbed": fp,
            }).encode("utf-8")).hexdigest()
            for op, params in points
        ]
        assert point_keys(points, fp) == expected
        assert [_point_key(op, params, fp) for op, params in points] == expected

    def test_fingerprint_ignores_object_identity(self):
        assert _fingerprint(Testbed(scale="tiny")) == _fingerprint(
            Testbed(scale="tiny")
        )

    def test_nan_params_rejected(self):
        """NaN != NaN, so a NaN-keyed point could never be looked up again."""
        with pytest.raises(ConfigurationError):
            _point_key("roundtrip", {"rel_bound": float("nan")}, self.FP)
        with pytest.raises(ConfigurationError):
            _point_key("io_point", {"nested": {"deep": [float("nan")]}}, self.FP)

    def test_infinite_params_canonicalized_not_emitted_raw(self):
        """allow_nan=False: the canonical JSON stays strict RFC 8259."""
        from repro.runtime.store import _canonical_json

        with pytest.raises(ValueError):
            _canonical_json({"x": float("inf")})
        pos = _point_key("roundtrip", {"rel_bound": float("inf")}, self.FP)
        neg = _point_key("roundtrip", {"rel_bound": float("-inf")}, self.FP)
        big = _point_key("roundtrip", {"rel_bound": 1e308}, self.FP)
        assert len({pos, neg, big}) == 3  # distinct, deterministic identities
        assert pos == _point_key("roundtrip", {"rel_bound": float("inf")}, self.FP)

    def test_infinity_token_cannot_collide_with_strings(self):
        inf_key = _point_key("roundtrip", {"rel_bound": float("inf")}, self.FP)
        str_key = _point_key("roundtrip", {"rel_bound": "Infinity"}, self.FP)
        assert inf_key != str_key

    def test_reserved_nonfinite_key_rejected_in_dict_params(self):
        """A user dict shaped like the inf token must not alias its key."""
        with pytest.raises(ConfigurationError):
            _point_key(
                "roundtrip", {"x": {"__nonfinite__": "Infinity"}}, self.FP
            )


class TestResultStore:
    REC = RoundtripRecord(
        dataset="cesm", scale="tiny", codec="szx", rel_bound=1e-3, ratio=3.0,
        psnr_db=70.0, autocorr=0.1, max_rel_err=9e-4, compressed_nbytes=10,
        original_nbytes=30,
    )

    def test_hit_miss_accounting(self):
        store = ResultStore()
        assert store.get("k") is None
        store.put("k", self.REC)
        assert store.get("k") is self.REC
        assert store.stats == {
            "entries": 1, "memory_hits": 1, "disk_hits": 0, "misses": 1,
            "corrupt_quarantined": 0,
        }

    def test_encode_decode_nested(self):
        sp = SerialPoint(
            dataset="cesm", codec="szx", rel_bound=1e-3, cpu="max9480", threads=1,
            compress_time_s=1.0, decompress_time_s=0.5, compress_energy_j=10.0,
            decompress_energy_j=5.0, roundtrip=self.REC,
        )
        assert decode_record(encode_record(sp)) == sp

    def test_disk_round_trip_and_promotion(self, tmp_path):
        warm = ResultStore(cache_dir=tmp_path)
        warm.put("k", self.REC)
        cold = ResultStore(cache_dir=tmp_path)
        got = cold.get("k")
        assert got == self.REC
        assert cold.stats["disk_hits"] == 1
        # promoted: second read is a memory hit
        cold.get("k")
        assert cold.stats["memory_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None

    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        assert store.stats["corrupt_quarantined"] == 1
        assert not (tmp_path / "bad.json").exists()
        assert (tmp_path / "bad.corrupt").exists()
        # quarantined once: the next read is a plain absent-file miss
        assert store.get("bad") is None
        assert store.stats["corrupt_quarantined"] == 1

    def test_checksum_mismatch_quarantined(self, tmp_path):
        warm = ResultStore(cache_dir=tmp_path)
        warm.put("k", self.REC)
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        payload["record"]["ratio"] = 999.0  # bit-flip: valid JSON, wrong sum
        path.write_text(json.dumps(payload))
        cold = ResultStore(cache_dir=tmp_path)
        assert cold.get("k") is None
        assert cold.stats["corrupt_quarantined"] == 1
        assert (tmp_path / "k.corrupt").exists()

    def test_stale_version_is_miss_not_corrupt(self, tmp_path):
        warm = ResultStore(cache_dir=tmp_path)
        warm.put("k", self.REC)
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        cold = ResultStore(cache_dir=tmp_path)
        assert cold.get("k") is None
        assert cold.stats["corrupt_quarantined"] == 0
        assert path.exists()  # left for its own cache version

    def test_legacy_checksumless_entry_still_reads(self, tmp_path):
        warm = ResultStore(cache_dir=tmp_path)
        warm.put("k", self.REC)
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert ResultStore(cache_dir=tmp_path).get("k") == self.REC

    def test_contains_matches_get_for_corrupt_entries(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put("good", self.REC)
        (tmp_path / "bad.json").write_text("{not json")
        assert "good" in store
        assert "bad" not in store  # same parse-or-miss path as get()
        cold = ResultStore(cache_dir=tmp_path)
        assert "good" in cold
        assert "bad" not in cold

    def test_put_tmp_race_between_threads(self, tmp_path):
        import threading

        store = ResultStore(cache_dir=tmp_path)
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    store.put("k", self.REC)
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ResultStore(cache_dir=tmp_path).get("k") == self.REC
        assert not list(tmp_path.glob("*.tmp"))  # no stranded temp files

    def test_clear(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put("k", self.REC)
        store.clear(disk=True)
        assert len(store) == 0
        assert ResultStore(cache_dir=tmp_path).get("k") is None

    def test_clear_removes_tmp_corrupt_and_manifest_strays(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put("k", self.REC)
        (tmp_path / ".abc123.x9y8.tmp").write_text("half-written")
        (tmp_path / "dead.json.tmp.12345").write_text("legacy tmp layout")
        (tmp_path / "old.corrupt").write_text("quarantined")
        (tmp_path / "sweep-abc.manifest.jsonl").write_text('{"key": "k"}\n')
        store.clear(disk=True)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != ".lock"]
        assert leftovers == []


class TestSweepEngine:
    def test_cache_hits_on_second_run(self, engine):
        spec = SweepSpec(kind="serial", **SMALL)
        first = engine.run(spec)
        assert engine.stats.computed == 4
        second = engine.run(spec)
        assert second == first
        assert engine.stats.computed == 4  # nothing new
        assert engine.stats.cache_hits == 4

    def test_within_run_deduplication(self, engine):
        # Two specs' worth of identical points in one run: evaluated once.
        spec = SweepSpec(kind="quality", datasets=("cesm", "cesm"),
                         codecs=("szx",), bounds=(1e-3,))
        records = engine.run(spec)
        assert len(records) == 2 and records[0] == records[1]
        assert engine.stats.computed == 1

    def test_events_cover_every_point(self, tiny_testbed):
        events: list[SweepEvent] = []
        engine = SweepEngine(
            testbed=tiny_testbed, store=ResultStore(), on_event=events.append
        )
        engine.run(SweepSpec(kind="serial", **SMALL))
        kinds = [e.kind for e in events]
        assert kinds[0] == "start" and kinds[-1] == "finish"
        assert sum(k == "point" for k in kinds) == 4

    def test_thread_pool_equals_serial(self, tiny_testbed, engine):
        spec = SweepSpec(kind="serial", **SMALL)
        serial = engine.run(spec)
        threaded = SweepEngine(
            testbed=tiny_testbed, store=ResultStore(), executor="thread", max_workers=4
        ).run(spec)
        assert threaded == serial

    def test_process_pool_equals_serial(self, tiny_testbed, engine):
        spec = SweepSpec(kind="io", io_libraries=("hdf5",), **SMALL)
        serial = engine.run(spec)
        parallel_engine = SweepEngine(
            testbed=Testbed(scale="tiny"),
            store=ResultStore(),
            executor="process",
            max_workers=2,
        )
        parallel = parallel_engine.run(spec)
        assert parallel == serial
        assert parallel_engine.stats.computed == len(spec.points())

    def test_disk_cache_survives_engines(self, tiny_testbed, tmp_path):
        spec = SweepSpec(kind="quality", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,))
        first = SweepEngine(testbed=tiny_testbed, store=ResultStore(cache_dir=tmp_path))
        records = first.run(spec)
        fresh = SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore(cache_dir=tmp_path))
        assert fresh.run(spec) == records
        assert fresh.stats.computed == 0

    def test_evaluate_single_point_memoized(self, engine):
        a = engine.evaluate("roundtrip", dataset="cesm", codec="szx", rel_bound=1e-3)
        b = engine.evaluate("roundtrip", dataset="cesm", codec="szx", rel_bound=1e-3)
        assert a is b and engine.stats.computed == 1

    def test_unknown_executor_rejected(self, tiny_testbed):
        with pytest.raises(ConfigurationError):
            SweepEngine(testbed=tiny_testbed, executor="gpu")

    def test_mutated_testbed_does_not_serve_stale_results(self):
        # The seed drivers read testbed config at call time; the engine's
        # keys must too, or a scale change would silently hit the old cache.
        tb = Testbed(scale="tiny")
        engine = SweepEngine(testbed=tb, store=ResultStore())
        spec = SweepSpec(kind="quality", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,))
        tiny = engine.run(spec)[0]
        tb.scale = "test"
        test = engine.run(spec)[0]
        assert engine.stats.computed == 2
        assert test.scale == "test" and test != tiny

    def test_run_takes_the_fingerprint_once(self, engine, monkeypatch):
        # Keys are built in one list at the start of run, so one fingerprint
        # serves them all; the mutation test above shows a later run still
        # takes a fresh one.
        import repro.runtime.engine as engine_module

        calls = []
        real = engine_module.testbed_fingerprint
        monkeypatch.setattr(engine_module, "testbed_fingerprint",
                            lambda testbed: calls.append(testbed) or real(testbed))
        spec = SweepSpec(kind="quality", **SMALL)
        engine.run(spec)
        assert calls == [engine.testbed]
        engine.run(spec)
        assert len(calls) == 2 and engine.stats.cache_hits == len(spec.points())

    def test_worker_testbed_cache_keyed_by_fingerprint(self):
        # _WORKER_TESTBEDS must key on the full testbed fingerprint: after
        # the parent mutates config between runs, a pool worker must build
        # a fresh testbed, never reuse the one cached for the old config.
        from repro.runtime.engine import _WORKER_TESTBEDS, _evaluate_in_worker
        from repro.runtime.store import point_key, testbed_fingerprint

        _WORKER_TESTBEDS.clear()
        for scale in ("tiny", "test"):
            config = SweepEngine(testbed=Testbed(scale=scale))._testbed_config()
            config_id = point_key(
                "__testbed__", {}, testbed_fingerprint(Testbed(scale=scale))
            )
            rec = _evaluate_in_worker(
                config, config_id, "roundtrip",
                {"dataset": "cesm", "codec": "szx", "rel_bound": 1e-3},
            )
            assert rec.scale == scale
        assert len(_WORKER_TESTBEDS) == 2  # one cached testbed per config
        _WORKER_TESTBEDS.clear()

    def test_process_pool_not_stale_after_testbed_mutation(self):
        # End-to-end flavour of the above: same engine, same spec, config
        # mutated between process-pool runs — records must track the change.
        tb = Testbed(scale="tiny")
        engine = SweepEngine(testbed=tb, store=ResultStore(),
                             executor="process", max_workers=2)
        spec = SweepSpec(kind="quality", datasets=("cesm",),
                         codecs=("szx", "sz3"), bounds=(1e-3,))
        tiny = engine.run(spec)
        tb.scale = "test"
        test = engine.run(spec)
        assert all(r.scale == "tiny" for r in tiny)
        assert all(r.scale == "test" for r in test)
        assert engine.stats.computed == 4  # nothing served stale

    def test_pool_events_carry_total(self, tiny_testbed):
        events = []
        SweepEngine(
            testbed=tiny_testbed, store=ResultStore(), executor="thread",
            max_workers=2, on_event=events.append,
        ).run(SweepSpec(kind="quality", datasets=("cesm",), codecs=("szx", "sz3"), bounds=(1e-2,)))
        assert all(e.total == 2 for e in events if e.kind == "point")

    def test_record_types(self, engine):
        serial = engine.run(SweepSpec(kind="serial", datasets=("cesm",),
                                      codecs=("szx",), bounds=(1e-3,)))
        io = engine.run(SweepSpec(kind="io", datasets=("cesm",), codecs=("szx",),
                                  bounds=(1e-3,), io_libraries=("hdf5",)))
        assert isinstance(serial[0], SerialPoint)
        assert isinstance(io[0], IOPoint) and io[0].codec is None


class TestBatchedSweepRoundtrips:
    """A cold in-process sweep codes each (dataset, codec)'s bounds in one
    batched pass before its points evaluate; records are unchanged."""

    IO = dict(kind="io", datasets=("cesm", "hacc"), codecs=("szx", "zfp"),
              bounds=(1e-3, 1e-2), io_libraries=("hdf5",))

    @pytest.fixture()
    def memo(self, monkeypatch):
        import repro.core.experiments as experiments

        monkeypatch.setattr(experiments, "_ROUNDTRIP_CACHE", {})
        return experiments._ROUNDTRIP_CACHE

    @pytest.fixture()
    def batches(self, monkeypatch):
        """Every ``Testbed.roundtrips`` call's (dataset, codec, bounds)."""
        calls = []
        real = Testbed.roundtrips
        monkeypatch.setattr(
            Testbed, "roundtrips",
            lambda self, ds, codec, bounds: calls.append((ds, codec, list(bounds)))
            or real(self, ds, codec, bounds),
        )
        return calls

    def test_cold_sweep_batches_warm_sweep_does_not(self, memo, batches):
        spec = SweepSpec(**self.IO)
        store = ResultStore()
        cold = SweepEngine(testbed=Testbed(scale="tiny"), store=store).run(spec)
        assert sorted(b for b in batches if len(b[2]) > 1) == [
            (ds, codec, [1e-3, 1e-2])
            for ds in ("cesm", "hacc") for codec in ("szx", "zfp")
        ]
        batches.clear()
        warm = SweepEngine(testbed=Testbed(scale="tiny"), store=store).run(spec)
        assert warm == cold and batches == []
        # A fresh store over a warm memo computes every point, batching none.
        SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore()).run(spec)
        assert all(len(bounds) == 1 for _, _, bounds in batches)

    def test_records_equal_unbatched_under_every_executor(self, memo):
        spec = SweepSpec(**self.IO)
        expected = []
        for point in spec.points():  # one lone evaluation per point
            memo.clear()
            expected.append(SweepEngine(testbed=Testbed(scale="tiny"),
                                        store=ResultStore()).evaluate(
                point.op, **point.as_kwargs()))
        for executor in ("serial", "thread", "process"):
            memo.clear()
            engine = SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore(),
                                 executor=executor, max_workers=2)
            assert engine.run(spec) == expected, executor

    def test_failing_bound_keeps_its_error_chain(self, memo, batches):
        from repro.runtime.faults import FailedPoint, error_chain

        def sweep(bounds):
            memo.clear()
            spec = SweepSpec(kind="io", datasets=("cesm",), codecs=("szx",),
                             bounds=bounds, io_libraries=("hdf5",),
                             include_baseline=False)
            return SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore(),
                               on_error="collect").run(spec)

        (alone_ok,) = sweep((1e-3,))
        memo.clear()
        try:
            Testbed(scale="tiny").io_point("cesm", "szx", 1e-20)
        except Exception as exc:  # noqa: BLE001 - its chain is the reference
            expected_chain = error_chain(exc)
        batches.clear()
        ok, failed = sweep((1e-3, 1e-20))
        assert ("cesm", "szx", [1e-3, 1e-20]) in batches  # the batch was tried
        assert ok == alone_ok
        assert isinstance(failed, FailedPoint) and failed.reason == "error"
        assert failed.error_chain == expected_chain
        assert failed.error_chain[0].startswith("CompressionError: ")

    def test_process_pool_run_shuts_down_without_a_kill(self, monkeypatch):
        killed = []
        monkeypatch.setattr(SweepEngine, "_kill_pool", staticmethod(killed.append))
        engine = SweepEngine(testbed=Testbed(scale="tiny"), store=ResultStore(),
                             executor="process", max_workers=2)
        engine.run(SweepSpec(kind="quality", datasets=("cesm",),
                             codecs=("szx", "sz3"), bounds=(1e-3,)))
        assert killed == [] and engine.stats.computed == 2


class TestTradeoffAnalyzerMemoization:
    def test_warm_store_means_zero_new_evaluations(self, tiny_testbed):
        analyzer = TradeoffAnalyzer(
            tiny_testbed,
            engine=SweepEngine(testbed=tiny_testbed, store=ResultStore()),
        )
        grid = dict(codecs=("szx", "sz3"), bounds=(1e-2, 1e-3))
        first = analyzer.evaluate("cesm", **grid)
        computed_after_first = analyzer.engine.stats.computed
        assert computed_after_first > 0
        second = analyzer.evaluate("cesm", **grid)
        assert analyzer.engine.stats.computed == computed_after_first
        assert second == first

    def test_shares_points_with_nominal_clock_dvfs_sweep(self, tiny_testbed):
        from repro.energy.cpus import get_cpu

        engine = SweepEngine(testbed=tiny_testbed, store=ResultStore())
        analyzer = TradeoffAnalyzer(tiny_testbed, engine=engine)
        engine.run(
            SweepSpec(
                kind="dvfs",
                cpus=(analyzer.cpu_name,),
                io_libraries=(analyzer.io_library,),
                freqs=(get_cpu(analyzer.cpu_name).fnom_ghz,),
                **SMALL,
            )
        )
        baseline = engine.stats.computed
        assert baseline == 5  # 4 grid points + the uncompressed baseline
        analyzer.evaluate("cesm", codecs=SMALL["codecs"], bounds=SMALL["bounds"])
        # The analyzer's grid *is* that sweep: every point hits the store.
        assert engine.stats.computed == baseline
