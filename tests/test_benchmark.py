"""Kernel benchmark harness: document schema, round-trip, compare, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import BenchmarkRegression
from repro.runtime.benchmark import (
    CHUNKED_PIECES,
    CODEC_KERNELS,
    KERNELS,
    SCHEMA_VERSION,
    SYNTHETIC_DATASET,
    TINY_BOUNDS,
    TINY_CODECS,
    check_regressions,
    compare_docs,
    format_report,
    kernel_inputs,
    load_doc,
    missing_chunked_rows,
    run_and_report,
    run_kernels,
    validate_doc,
    write_doc,
)

QUICK = dict(quick=True, datasets=(SYNTHETIC_DATASET,))


@pytest.fixture(scope="module")
def quick_doc():
    return run_kernels((SYNTHETIC_DATASET,), quick=True)


class TestKernelInputs:
    def test_synthetic_stream_is_deterministic(self):
        a = kernel_inputs(SYNTHETIC_DATASET, target_symbols=4096)
        b = kernel_inputs(SYNTHETIC_DATASET, target_symbols=4096)
        np.testing.assert_array_equal(a.codes, b.codes)
        assert a.field is None

    def test_dataset_stream_is_tiled_to_target(self):
        inputs = kernel_inputs("nyx", target_symbols=1 << 15, scale="tiny")
        assert inputs.codes.size == 1 << 15
        assert inputs.codes.min() >= 0
        assert inputs.field is not None

    def test_every_kernel_prepares_or_skips(self):
        inputs = kernel_inputs(SYNTHETIC_DATASET, target_symbols=2048)
        names = set()
        for spec in KERNELS:
            prepared = spec.prepare(inputs)
            if prepared is None:
                continue
            fn, n_symbols, n_bytes = prepared
            assert n_symbols == 2048 and n_bytes > 0
            fn()  # must be callable without error
            names.add(spec.name)
        assert {"huffman_encode", "huffman_decode", "pack_bits", "unpack_bits"} <= names

    def test_field_decode_row_is_one_untiled_field(self):
        inputs = kernel_inputs("nyx", target_symbols=1 << 15, scale="tiny")
        (spec,) = [s for s in KERNELS if s.name == "huffman_decode_field"]
        fn, n_symbols, n_bytes = spec.prepare(inputs)
        assert n_symbols == inputs.field.size < inputs.codes.size
        assert n_bytes == 8 * n_symbols
        np.testing.assert_array_equal(fn(), inputs.codes[:n_symbols])


    def test_chunked_rows_code_the_field_in_pieces(self):
        inputs = kernel_inputs("nyx", target_symbols=1 << 15, scale="tiny")
        specs = {s.name: s for s in KERNELS}
        for codec in CODEC_KERNELS:
            whole = specs[f"{codec}_compress"].prepare(inputs)
            chunked = specs[f"{codec}_compress_chunked"].prepare(inputs)
            assert chunked[1:] == whole[1:]
            bufs = chunked[0]()
            assert len(bufs) == CHUNKED_PIECES
            assert sum(b.shape[0] for b in bufs) == inputs.field.shape[0]
            fn, _, _ = specs[f"{codec}_decompress_chunked"].prepare(inputs)
            parts = fn()
            assert np.concatenate(parts).shape == inputs.field.shape

    def test_tiny_rows_code_the_tiny_field_at_one_and_three_bounds(self):
        from repro.compressors import get_compressor
        from repro.data import generate

        inputs = kernel_inputs("cesm", target_symbols=1 << 12, scale="test")
        field = np.array(generate("cesm", "tiny"))
        specs = {s.name: s for s in KERNELS}
        for codec in TINY_CODECS:
            comp = get_compressor(codec)
            fn, n_symbols, n_bytes = specs[f"{codec}_compress_tiny"].prepare(inputs)
            (buf,) = fn()
            assert (n_symbols, n_bytes) == (field.size, field.nbytes)
            assert buf.data == comp.compress(field, inputs.rel_bound).data
            fn, n_symbols, n_bytes = specs[f"{codec}_compress_tiny_bounds"].prepare(
                inputs
            )
            assert [b.data for b in fn()] == [
                comp.compress(field, b).data for b in TINY_BOUNDS
            ]
            assert n_bytes == len(TINY_BOUNDS) * field.nbytes
            fn, _, _ = specs[f"{codec}_decompress_tiny_bounds"].prepare(inputs)
            assert all(a.shape == field.shape for a in fn())


class TestDocumentSchema:
    def test_run_produces_valid_doc(self, quick_doc):
        validate_doc(quick_doc)  # must not raise
        assert quick_doc["schema_version"] == SCHEMA_VERSION
        kernels = {r["kernel"] for r in quick_doc["results"]}
        assert "huffman_decode" in kernels
        for rec in quick_doc["results"]:
            assert rec["mb_per_s"] > 0 and rec["sym_per_s"] > 0

    def test_validate_rejects_drift(self, quick_doc):
        bad = dict(quick_doc, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="schema_version"):
            validate_doc(bad)
        bad = {k: v for k, v in quick_doc.items() if k != "results"}
        with pytest.raises(ValueError, match="results"):
            validate_doc(bad)
        bad = dict(quick_doc, results=[])
        with pytest.raises(ValueError, match="non-empty"):
            validate_doc(bad)
        clipped = [
            {k: v for k, v in quick_doc["results"][0].items() if k != "sym_per_s"}
        ]
        with pytest.raises(ValueError, match="sym_per_s"):
            validate_doc(dict(quick_doc, results=clipped))
        with pytest.raises(ValueError):
            validate_doc([])

    def test_validate_rejects_drift_in_the_history_trail(self, quick_doc):
        run = {k: v for k, v in quick_doc.items() if k != "history"}
        validate_doc(dict(quick_doc, history=[run, run]))
        clipped = dict(run, results=[
            {k: v for k, v in quick_doc["results"][0].items() if k != "calls"}
        ])
        with pytest.raises(ValueError, match=r"history\[1\].*calls"):
            validate_doc(dict(quick_doc, history=[run, clipped]))
        with pytest.raises(ValueError, match=r"history\[0\]"):
            validate_doc(dict(quick_doc, history=[dict(quick_doc, history=[])]))

    def test_schema_step_requires_a_chunked_row_per_codec_row(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
        from check_record_schemas import check

        row = {"dataset": "nyx", "n_symbols": 1, "n_bytes": 8,
               "seconds_per_call": 1.0, "mb_per_s": 1.0, "sym_per_s": 1.0,
               "calls": 2}
        doc = {"schema_version": SCHEMA_VERSION, "created": "now",
               "repro_version": "0", "quick": True, "history": [],
               "results": [dict(row, kernel=k) for k in (
                   "huffman_encode", "sz3_compress", "sz3_compress_chunked",
                   "zfp_decompress")]}
        assert missing_chunked_rows(doc) == ["zfp_decompress/nyx"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        (error,) = check("bench", path)
        assert "zfp_decompress/nyx" in error
        doc["results"].append(dict(row, kernel="zfp_decompress_chunked"))
        path.write_text(json.dumps(doc))
        assert check("bench", path) == []

    def test_json_round_trip(self, tmp_path, quick_doc):
        path = tmp_path / "BENCH_kernels.json"
        write_doc(str(path), quick_doc)
        loaded = load_doc(str(path))
        assert loaded == json.loads(json.dumps(quick_doc))


class TestCompare:
    def test_compare_matches_by_kernel_and_dataset(self, quick_doc):
        twice = json.loads(json.dumps(quick_doc))
        for rec in twice["results"]:
            rec["seconds_per_call"] /= 2.0
        deltas = compare_docs(quick_doc, twice)
        assert len(deltas) == len(quick_doc["results"])
        for d in deltas:
            assert d["speedup"] == pytest.approx(2.0)

    def test_compare_skips_mismatched_input_sizes(self, quick_doc):
        # A quick run vs a stored full run must not report size ratios as
        # speedups (the CI bench-smoke path hits exactly this).
        full = json.loads(json.dumps(quick_doc))
        for rec in full["results"]:
            rec["n_symbols"] *= 16
            rec["seconds_per_call"] *= 16
        assert compare_docs(full, quick_doc) == []

    def test_report_mentions_speedup(self, quick_doc):
        twice = json.loads(json.dumps(quick_doc))
        for rec in twice["results"]:
            rec["seconds_per_call"] /= 2.0
        report = format_report(twice, compare_docs(quick_doc, twice))
        assert "2.0" in report and "huffman_decode" in report

    def test_run_and_report_round_trips_history(self, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        emitted: list[str] = []
        first = run_and_report(str(out), emit=emitted.append, **QUICK)
        assert out.exists() and first["history"] == []
        second = run_and_report(str(out), emit=emitted.append, **QUICK)
        assert len(second["history"]) == 1
        assert second["history"][0]["created"] == first["created"]
        assert any("compared against previous run" in line for line in emitted)
        validate_doc(second)


class TestBenchCLI:
    def test_bench_kernels_quick(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        argv = [
            "bench",
            "kernels",
            "--quick",
            "--output",
            str(out),
            "--datasets",
            SYNTHETIC_DATASET,
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "huffman_decode" in text and "MB/s" in text
        validate_doc(json.loads(out.read_text()))
        # Second invocation exercises the load -> compare -> report path.
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "compared against previous run" in text

    def test_bench_json_flag_prints_document(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        argv = [
            "bench", "kernels", "--quick", "--json",
            "--output", str(out), "--datasets", SYNTHETIC_DATASET,
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        start = text.index("{")
        doc = json.loads(text[start:])
        validate_doc(doc)


class TestRegressionGate:
    def _slow_down_previous(self, path, factor):
        doc = json.loads(path.read_text())
        for rec in doc["results"]:
            rec["seconds_per_call"] /= factor  # previous run looks faster
        path.write_text(json.dumps(doc))

    def test_check_regressions_thresholds(self):
        deltas = [
            {"kernel": "k", "dataset": "d", "speedup": 0.9,
             "old_seconds_per_call": 1.0, "new_seconds_per_call": 1.11},
            {"kernel": "k2", "dataset": "d", "speedup": 1.2,
             "old_seconds_per_call": 1.0, "new_seconds_per_call": 0.83},
        ]
        check_regressions(deltas, 20.0)  # 0.9 >= 1/1.2: inside the budget
        with pytest.raises(BenchmarkRegression) as excinfo:
            check_regressions(deltas, 5.0)
        exc = excinfo.value
        assert exc.max_regression_pct == 5.0
        assert [d["kernel"] for d in exc.offenders] == ["k"]
        assert "k/d" in str(exc)

    def test_run_and_report_raises_after_writing(self, tmp_path):
        out = tmp_path / "B.json"
        run_and_report(str(out), emit=lambda _: None, **QUICK)
        self._slow_down_previous(out, 100.0)
        with pytest.raises(BenchmarkRegression):
            run_and_report(
                str(out), emit=lambda _: None, max_regression_pct=20.0, **QUICK
            )
        # The regressed run is still recorded for the artifact trail.
        doc = load_doc(str(out))
        assert len(doc["history"]) == 1

    def test_no_previous_run_never_regresses(self, tmp_path):
        out = tmp_path / "B.json"
        doc = run_and_report(
            str(out), emit=lambda _: None, max_regression_pct=0.001, **QUICK
        )
        validate_doc(doc)

    def test_cli_max_regression_exit_code(self, tmp_path, capsys):
        out = tmp_path / "B.json"
        argv = [
            "bench", "kernels", "--quick",
            "--output", str(out), "--datasets", SYNTHETIC_DATASET,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        self._slow_down_previous(out, 100.0)
        assert main(argv + ["--max-regression", "20"]) == 1
        text = capsys.readouterr().out
        assert "BENCH REGRESSION" in text and "slower" in text
