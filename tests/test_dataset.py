"""The dataset façade: containers, write/read round-trip, tuner, kind.

The acceptance contract: a façade round-trip is bit-exact per variable
against the chosen spec's own reconstruction, and the auto-tuner's pick
meets each declared quality floor.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.core.experiments import Testbed
from repro.dataset import (
    AutoTuner,
    Dataset,
    Variable,
    parse_compression,
    read,
    write,
)
from repro.dataset.facade import _sniff_library
from repro.errors import ConfigurationError, DecompressionError, IOModelError
from repro.iolib import get_io_library
from repro.iolib.pipeline import chunk_array
from repro.metrics.error import max_rel_error
from repro.obs import tracing

from hostile import bit_flips, outcomes, truncations, walk

TESTBED = Testbed(scale="tiny")


@pytest.fixture(scope="module")
def catalog_ds():
    return Dataset.from_catalog(["cesm", "hacc"], scale="tiny")


class TestContainers:
    def test_from_catalog_carries_provenance(self, catalog_ds):
        v = catalog_ds["cesm"]
        assert v.source == "cesm" and v.scale == "tiny"
        assert not v.data.flags.writeable

    def test_from_arrays(self):
        ds = Dataset.from_arrays({"a": np.ones(8), "b": np.zeros((2, 3))})
        assert ds.names == ("a", "b")
        assert "a" in ds and "nope" not in ds
        with pytest.raises(KeyError):
            ds["nope"]

    def test_rejects_bad_names_and_dtypes(self):
        with pytest.raises(ConfigurationError):
            Variable(name="has space", data=np.ones(4))
        with pytest.raises(ConfigurationError):
            Variable(name="a:b", data=np.ones(4))
        with pytest.raises(ConfigurationError):
            Variable(name="ints", data=np.arange(4))
        with pytest.raises(ConfigurationError):
            Variable(name="empty", data=np.zeros(0))

    def test_rejects_duplicates_and_empty(self):
        v = Variable(name="x", data=np.ones(4))
        with pytest.raises(ConfigurationError):
            Dataset(variables=(v, v))
        with pytest.raises(ConfigurationError):
            Dataset(variables=())


class TestWriteRead:
    def test_roundtrip_bit_exact_per_variable(self, catalog_ds, tmp_path):
        path = tmp_path / "out.h5"
        report = write(
            catalog_ds,
            path,
            compression="cesm:lossy,sz3,rel,1e-3;auto,rel,1e-2",
            testbed=TESTBED,
        )
        back = read(path)
        assert back.names == catalog_ds.names
        for v in catalog_ds:
            entry = report.tuning.for_variable(v.name)
            buf = get_compressor(entry.codec).compress(v.data, entry.rel_bound)
            recon = get_compressor(entry.codec).decompress(buf.data)
            assert np.array_equal(back[v.name].data, recon)

    def test_lossless_roundtrip_is_identity(self, catalog_ds, tmp_path):
        path = tmp_path / "out.nc"
        write(catalog_ds, path, compression="lossless,zstd",
              io_library="netcdf", testbed=TESTBED)
        back = read(path)
        assert back.attrs["io_library"] == "netcdf"
        for v in catalog_ds:
            assert np.array_equal(back[v.name].data, v.data)

    def test_chunked_roundtrip(self, catalog_ds, tmp_path):
        path = tmp_path / "chunked.h5"
        write(catalog_ds, path, compression="lossless,blosc", n_chunks=4,
              testbed=TESTBED)
        back = read(path)
        for v in catalog_ds:
            assert np.array_equal(back[v.name].data, v.data)

    def test_chunk_headers_cost_real_bytes(self, tmp_path):
        # Every chunk is its own stream and container object: the bytes
        # behind the cost model's chunk_meta_latency_s.
        ds = Dataset.from_arrays({"x": np.arange(64.0).reshape(16, 4)})
        sizes = []
        for n_chunks in (1, 8):
            path = tmp_path / f"c{n_chunks}.h5"
            write(ds, path, compression="lossless,zstd", n_chunks=n_chunks,
                  testbed=TESTBED)
            sizes.append(path.stat().st_size)
        assert sizes[1] > sizes[0]

    def test_read_sniffs_library(self, catalog_ds, tmp_path):
        for lib in ("hdf5", "netcdf"):
            path = tmp_path / f"sniff-{lib}"
            write(catalog_ds, path, compression="lossless", io_library=lib,
                  testbed=TESTBED)
            assert read(path).attrs["io_library"] == lib

    def test_stored_specs_are_concrete(self, catalog_ds, tmp_path):
        # The container records what was *done*, never an unresolved auto.
        path = tmp_path / "auto.h5"
        write(catalog_ds, path, compression="auto,rel,1e-2", testbed=TESTBED)
        back = read(path)
        for name in back.names:
            stored = parse_compression(back.attrs[f"spec/{name}"])
            assert stored.mode in ("lossy", "lossless")

    def test_unknown_codec_fails_before_writing(self, catalog_ds, tmp_path):
        path = tmp_path / "never.h5"
        with pytest.raises(ConfigurationError):
            write(catalog_ds, path, compression="lossy,nope,rel,1e-3",
                  testbed=TESTBED)
        assert not path.exists()


class TestAutoTuner:
    def test_choice_meets_floor_and_is_cheapest(self, catalog_ds):
        tuner = AutoTuner(testbed=TESTBED, codecs=("szx", "sz3"),
                          bounds=(1e-3, 1e-2))
        report = tuner.tune(catalog_ds, "auto,rel,1e-2")
        assert report.all_meet_floor
        for entry in report:
            assert entry.tuned if hasattr(entry, "tuned") else True
            assert entry.floor == 1e-2
            assert entry.max_rel_err <= entry.floor
            assert entry.candidates >= 1
            # The winner is minimal: no examined candidate that also meets
            # the floor is strictly cheaper.
            for codec in ("szx", "sz3"):
                for bound in (1e-3, 1e-2):
                    rt = TESTBED.roundtrip(entry.variable, codec, bound)
                    if rt.max_rel_err > entry.floor:
                        continue
                    io = TESTBED.io_point(entry.variable, codec, bound,
                                          io_library="hdf5",
                                          cpu_name="max9480")
                    assert entry.cost_energy_j <= io.total_energy_j + 1e-9

    def test_deterministic(self, catalog_ds):
        tuner = AutoTuner(testbed=TESTBED, codecs=("szx", "sz3"),
                          bounds=(1e-3, 1e-2))
        a = tuner.tune(catalog_ds, "auto,rel,1e-2")
        b = tuner.tune(catalog_ds, "auto,rel,1e-2")
        assert a == b

    def test_adhoc_variable_compresses_for_real(self):
        data = np.cumsum(np.random.default_rng(3).standard_normal(4096))
        ds = Dataset.from_arrays({"walk": data})
        report = AutoTuner(testbed=TESTBED, codecs=("sz3", "szx"),
                           bounds=(1e-2, 1e-3)).tune(ds, "auto,rel,1e-2")
        entry = report.for_variable("walk")
        assert entry.max_rel_err <= 1e-2
        assert entry.ratio > 1.0

    def test_constant_variable_tunes(self):
        # Regression: zero value range used to make every lossy candidate
        # look infinitely wrong; the constant fast path stores it exactly.
        ds = Dataset.from_arrays({"flat": np.full((16, 16), 7.0)})
        report = AutoTuner(testbed=TESTBED).tune(ds, "auto,rel,1e-3")
        assert report.for_variable("flat").max_rel_err == 0.0

    def test_infeasible_search_names_the_grid(self):
        # The EBLC models are bound-respecting by construction, so the
        # no-candidate path is reached when the search grid itself is empty.
        noisy = np.random.default_rng(5).standard_normal(2048)
        ds = Dataset.from_arrays({"noise": noisy})
        tuner = AutoTuner(testbed=TESTBED, codecs=(), bounds=(1e-1,))
        with pytest.raises(ConfigurationError, match="quality floor"):
            tuner.tune(ds, "auto,rel,1e-3")


class TestDatasetKind:
    def test_registered_and_sweepable(self):
        from repro.runtime import registry
        from repro.runtime.spec import SweepSpec

        kind = registry.get_kind("dataset")
        spec = SweepSpec(kind="dataset", datasets=("cesm",),
                         codecs=("szx", "sz3"), bounds=(1e-3, 1e-2),
                         io_libraries=("hdf5",), cpus=("max9480",),
                         compression="auto,rel,1e-2")
        records = [
            registry.evaluate_op(TESTBED, p.op, p.as_kwargs())
            for p in spec.points()
        ]
        assert len(records) == 1
        rec = records[0]
        assert rec.tuned and rec.candidates == 4
        assert rec.max_rel_err <= 1e-2
        assert kind.check_records(registry.to_wire(records)) == []

    def test_explicit_spec_not_tuned(self):
        from repro.runtime import registry
        from repro.runtime.spec import SweepSpec

        spec = SweepSpec(kind="dataset", datasets=("cesm",),
                         io_libraries=("hdf5",), cpus=("max9480",),
                         compression="lossy,sz3,rel,1e-3")
        (point,) = spec.points()
        rec = registry.evaluate_op(TESTBED, point.op, point.as_kwargs())
        assert not rec.tuned and rec.candidates == 1
        assert rec.codec == "sz3" and rec.rel_bound == 1e-3

    def test_full_conformance_battery(self, tmp_path, capsys):
        # The shared battery every kind earns by registering.
        from conformance import assert_kind_conformance
        from repro.runtime import registry

        assert_kind_conformance(TESTBED, registry.get_kind("dataset"),
                                tmp_path, capsys)

    def test_cli_tune_json_passes_schema_gate(self, tmp_path, capsys):
        import sys

        from repro.cli import main
        from repro.runtime import registry

        rc = main([
            "dataset", "tune", "--datasets", "cesm", "--codecs", "szx,sz3",
            "--bounds", "1e-3,1e-2", "--scale", "tiny",
            "--compression", "auto,rel,1e-2", "--json",
        ])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert registry.get_kind("dataset").check_records(records) == []
        import pathlib

        tools = str(pathlib.Path(__file__).parents[1] / "tools")
        sys.path.insert(0, tools)
        try:
            from check_record_schemas import check

            path = tmp_path / "tune.json"
            path.write_text(json.dumps(records))
            assert check("dataset", path) == []
        finally:
            sys.path.remove(tools)

    def test_cli_write_read_commands(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli.h5"
        assert main([
            "dataset", "write", str(out), "--datasets", "cesm",
            "--compression", "lossy,szx,rel,1e-3", "--scale", "tiny",
        ]) == 0
        assert out.exists()
        capsys.readouterr()
        dump = tmp_path / "dump"
        assert main(["dataset", "read", str(out), "--out-dir", str(dump)]) == 0
        assert (dump / "cesm.npy").exists()
        recon = np.load(dump / "cesm.npy")
        from repro.data.registry import generate

        assert max_rel_error(generate("cesm", "tiny"), recon) <= 1e-3 + 1e-9


# -- compress once ------------------------------------------------------------

EBLCS = ("sz2", "sz3", "qoz", "zfp", "szx")


#: Ad-hoc fields (no catalogue provenance), so the tuner compresses them.
ADHOC = Dataset.from_arrays({
    "walk": walk((16, 10, 9), 3),
    "line": walk((400,), 4).astype(np.float32),
})


def _stored(path) -> dict[str, list[bytes]]:
    """Each variable's stored streams, in chunk order."""
    _, (members, attrs) = _sniff_library(path.read_bytes())
    out = {}
    for name in attrs["__variables__"].split(","):
        n = int(attrs.get(f"chunks/{name}", "0"))
        keys = [f"{name}/{i:05d}" for i in range(n)] or [name]
        out[name] = [bytes(members[key]) for key in keys]
    return out


def _codec_spans(tracer) -> Counter:
    return Counter(
        s.name for s in tracer.spans
        if s.name.startswith(("compress:", "decompress:"))
    )


class TestCompressOnce:
    """A façade write compresses each stored stream once, and measures its
    quality by decompressing that same stream once."""

    @pytest.mark.parametrize("n_chunks", (1, 4))
    @pytest.mark.parametrize("codec", EBLCS)
    def test_one_compress_and_decompress_per_stream(self, codec, n_chunks,
                                                     tmp_path):
        path = tmp_path / "once.h5"
        with tracing() as tracer:
            report = write(ADHOC, path, f"lossy,{codec},rel,1e-3",
                           n_chunks=n_chunks, testbed=TESTBED)
        stored = _stored(path)
        n_streams = sum(len(streams) for streams in stored.values())
        assert n_streams == len(ADHOC) * n_chunks
        assert _codec_spans(tracer) == {
            f"compress:{codec}": n_streams, f"decompress:{codec}": n_streams,
        }
        comp = get_compressor(codec)
        for var in ADHOC:
            rel = report.tuning.for_variable(var.name).rel_bound
            pieces = chunk_array(var.data, n_chunks) if n_chunks > 1 else [var.data]
            assert stored[var.name] == [comp.compress(p, rel).data for p in pieces]
            assert report.tuning.streams[var.name] == tuple(stored[var.name])

    @pytest.mark.parametrize("spec", ["lossy,sz3,rel,1e-3", "lossless,zstd"])
    def test_unchunked_report_is_the_plain_tune(self, spec, tmp_path):
        report = write(ADHOC, tmp_path / "one.nc", spec, io_library="netcdf",
                       testbed=TESTBED)
        assert report.tuning == AutoTuner(testbed=TESTBED).tune(ADHOC, spec)

    @pytest.mark.parametrize("codec", ("sz3", "zfp"))
    def test_chunked_report_describes_stored_streams(self, codec, tmp_path):
        path = tmp_path / "chunked.h5"
        report = write(ADHOC, path, f"lossy,{codec},rel,1e-3", n_chunks=4,
                       testbed=TESTBED)
        stored, back = _stored(path), read(path)
        for var in ADHOC:
            entry = report.tuning.for_variable(var.name)
            total = sum(len(stream) for stream in stored[var.name])
            assert entry.ratio == var.nbytes / total
            assert entry.max_rel_err == max_rel_error(var.data,
                                                      back[var.name].data)

    def test_auto_stores_the_winners_stream(self, tmp_path):
        path = tmp_path / "auto.h5"
        tuner = AutoTuner(testbed=TESTBED, codecs=("sz3", "szx", "zfp"),
                          bounds=(1e-2, 1e-3))
        with tracing() as tracer:
            report = write(ADHOC, path, "auto,rel,1e-2", tuner=tuner)
        spans = _codec_spans(tracer)
        # One compress and one decompress per examined candidate; nothing
        # is compressed again for the file.
        examined = sum(entry.candidates for entry in report.tuning)
        assert examined == len(ADHOC) * 6
        assert sum(n for name, n in spans.items()
                   if name.startswith("compress:")) == examined
        assert sum(n for name, n in spans.items()
                   if name.startswith("decompress:")) == examined
        assert report.tuning == tuner.tune(ADHOC, "auto,rel,1e-2")
        stored = _stored(path)
        for entry in report.tuning:
            comp = get_compressor(entry.codec)
            expect = comp.compress(ADHOC[entry.variable].data, entry.rel_bound)
            assert stored[entry.variable] == [expect.data]

    def test_auto_chunked_compresses_the_winners_chunks_once(self, tmp_path):
        tuner = AutoTuner(testbed=TESTBED, codecs=("sz3", "szx"),
                          bounds=(1e-2,))
        with tracing() as tracer:
            report = write(ADHOC, tmp_path / "auto.nc", "auto,rel,1e-2",
                           io_library="netcdf", n_chunks=4, tuner=tuner)
        compresses = sum(n for name, n in _codec_spans(tracer).items()
                         if name.startswith("compress:"))
        assert compresses == len(ADHOC) * (2 + 4)
        assert report.tuning == tuner.tune(ADHOC, "auto,rel,1e-2")


# -- hostile containers --------------------------------------------------------


def _assert_reads_typed(path, files):
    """Each ``(label, bytes)`` of ``files``, written to ``path``, raises a
    typed error on read, or reads back as the variables its container and
    stream headers declare."""

    def read_back(blob):
        path.write_bytes(blob)
        return read(path)

    for label, _, got in outcomes(read_back, files):
        if isinstance(got, BaseException):
            assert isinstance(got, (IOModelError, DecompressionError)), (
                f"{label}: {got!r}"
            )
            continue
        _assert_declared(path, got, label)


def _assert_declared(path, got, label):
    lib = get_io_library(got.attrs["io_library"])
    members, attrs = lib.unpack(path.read_bytes())
    order = [n for n in attrs.get("__variables__", "").split(",") if n]
    assert list(got.names) == (
        order or sorted({key.partition("/")[0] for key in members})
    ), label
    for var in got:
        n = int(attrs.get(f"chunks/{var.name}", "0"))
        keys = [f"{var.name}/{i:05d}" for i in range(n)] or [var.name]
        heads = [Compressor._unpack_header(bytes(members[k])) for k in keys]
        shape = heads[0][1]
        if n:
            shape = (sum(h[1][0] for h in heads),) + shape[1:]
        assert var.data.shape == shape and var.data.dtype == heads[0][2], label


#: A float64 3-D field under sz3 and a float32 1-D field under szx.
CORRUPT_DS = Dataset.from_arrays({
    "walk": walk((8, 6, 5), 11),
    "line": walk((120,), 12).astype(np.float32),
}, attrs={"origin": "battery"})
CORRUPT_SPEC = "walk:lossy,sz3,rel,1e-3;lossy,szx,rel,1e-3"
CORRUPT_CASES = {
    f"{lib}-{n}": (lib, n, CORRUPT_SPEC) for lib in ("hdf5", "netcdf") for n in (1, 3)
}
# netcdf members carry no checksum, so flips reach the lossless decoders.
CORRUPT_CASES["netcdf-1-lossless"] = ("netcdf", 1, "walk:lossless,blosc;lossless,fpzip")
CORRUPT_CASES["netcdf-3-lossless"] = ("netcdf", 3, "walk:lossless,zstd;lossless,fpc")


class TestCorruptContainers:
    """Every truncation and 300 seeded bit flips of a façade file: each
    read raises ``IOModelError``/``DecompressionError`` or returns the
    declared names, shapes and dtypes, within a wall bound."""

    @pytest.fixture(params=sorted(CORRUPT_CASES))
    def written(self, request, tmp_path):
        lib, n_chunks, spec = CORRUPT_CASES[request.param]
        path = tmp_path / "good"
        write(CORRUPT_DS, path, spec, io_library=lib,
              n_chunks=n_chunks, testbed=TESTBED)
        return path.read_bytes(), tmp_path / "bad"

    def test_every_truncation(self, written):
        blob, bad = written
        _assert_reads_typed(bad, truncations(blob, "file"))

    def test_seeded_bit_flips(self, written):
        blob, bad = written
        _assert_reads_typed(bad, bit_flips(blob, "file", 300))


class TestReadMalformed:
    """Containers that parse but do not hold what their attrs declare."""

    STREAM = get_compressor("szx").compress(walk((6, 4), 5), 1e-3).data

    def _read(self, tmp_path, members, attrs):
        path = tmp_path / "crafted.h5"
        get_io_library("hdf5").write_file(path, members, attrs)
        return read(path)

    def test_missing_member(self, tmp_path):
        with pytest.raises(IOModelError, match="no member 'x'"):
            self._read(tmp_path, {"y": self.STREAM}, {"__variables__": "x"})
        with pytest.raises(IOModelError, match="no member 'x/00001'"):
            self._read(tmp_path, {"x/00000": self.STREAM, "y": self.STREAM},
                       {"__variables__": "x", "chunks/x": "2"})

    @pytest.mark.parametrize("count", ["two", "-1", "1e3", "", "3"])
    def test_malformed_chunk_count(self, tmp_path, count):
        members = {"x/00000": self.STREAM, "x/00001": self.STREAM}
        with pytest.raises(IOModelError, match="malformed chunk count"):
            self._read(tmp_path, members,
                       {"__variables__": "x", "chunks/x": count})

    def test_chunks_that_do_not_stack(self, tmp_path):
        other = get_compressor("szx").compress(walk((6, 5), 5), 1e-3).data
        with pytest.raises(IOModelError, match="do not stack"):
            self._read(tmp_path, {"x/00000": self.STREAM, "x/00001": other},
                       {"__variables__": "x", "chunks/x": "2"})

    def test_unknown_codec_and_bad_names(self, tmp_path):
        renamed = self.STREAM.replace(b"szx", b"zzz", 1)
        with pytest.raises(DecompressionError, match="unknown codec 'zzz'"):
            self._read(tmp_path, {"x": renamed}, {"__variables__": "x"})
        with pytest.raises(IOModelError, match="invalid variable name"):
            self._read(tmp_path, {"a b": self.STREAM}, {"__variables__": "a b"})
        with pytest.raises(IOModelError, match="duplicate"):
            self._read(tmp_path, {"x": self.STREAM}, {"__variables__": "x,x"})
