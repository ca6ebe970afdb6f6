"""CLI: every subcommand end-to-end through files and captured stdout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def field_file(tmp_path, rng):
    path = tmp_path / "field.npy"
    x = np.linspace(0, 1, 32)
    data = (np.sin(6 * x)[:, None] * np.cos(4 * x)[None, :]).astype(np.float32)
    data += 0.01 * rng.standard_normal(data.shape).astype(np.float32)
    np.save(path, data)
    return path, data


class TestCompressDecompress:
    def test_roundtrip_through_files(self, tmp_path, field_file, capsys):
        path, data = field_file
        packed = tmp_path / "field.rpz"
        recon_path = tmp_path / "recon.npy"
        assert (
            main(["compress", str(path), str(packed), "--codec", "sz3", "--rel-bound", "1e-3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "sz3" in out and "x," in out.replace("x ", "x,")  # ratio printed
        assert main(["decompress", str(packed), str(recon_path)]) == 0
        recon = np.load(recon_path)
        rng_span = float(data.max() - data.min())
        assert np.abs(recon - data).max() <= 1e-3 * rng_span * (1 + 1e-6)

    def test_lossless_codec(self, tmp_path, field_file, capsys):
        path, data = field_file
        packed = tmp_path / "f.rpz"
        recon = tmp_path / "r.npy"
        assert main(["compress", str(path), str(packed), "--codec", "fpzip"]) == 0
        assert main(["decompress", str(packed), str(recon)]) == 0
        np.testing.assert_array_equal(np.load(recon), data)

    def test_inspect(self, tmp_path, field_file, capsys):
        path, _ = field_file
        packed = tmp_path / "f.rpz"
        main(["compress", str(path), str(packed), "--codec", "szx"])
        capsys.readouterr()
        assert main(["inspect", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "szx" in out and "ratio" in out and "32x32" in out


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cesm", "hacc", "nyx", "s3d"):
            assert name in out

    def test_cpus(self, capsys):
        assert main(["cpus"]) == 0
        out = capsys.readouterr().out
        assert "Sapphire Rapids" in out and "350 W" in out

    def test_codecs(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        assert "sz3" in out and "lossless" in out


class TestAdvise:
    def test_advise_netcdf_recommends(self, capsys):
        rc = main(
            [
                "advise",
                "--dataset",
                "s3d",
                "--psnr-min",
                "40",
                "--io",
                "netcdf",
                "--scale",
                "tiny",
            ]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "PSNR" in out or "uncompressed" in out

    def test_advise_strict_usually_refuses(self, capsys):
        rc = main(
            [
                "advise",
                "--dataset",
                "nyx",
                "--psnr-min",
                "150",
                "--scale",
                "tiny",
                "--strict-time",
            ]
        )
        assert rc == 1
        assert "uncompressed" in capsys.readouterr().out


class TestAdviseDvfs:
    def test_dvfs_advice_prints_frontier_and_policy(self, capsys):
        rc = main(
            [
                "advise", "--dataset", "cesm", "--dvfs", "--cpu", "plat8160",
                "--scale", "tiny", "--freqs", "1.0,2.1,3.7",
            ]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "Pareto" in out and "GHz" in out
        assert "race" in out and "steady" in out


class TestSweepDvfs:
    ARGS = [
        "sweep", "--kind", "dvfs", "--datasets", "cesm", "--codecs", "szx",
        "--bounds", "1e-3", "--io-libraries", "hdf5", "--cpus", "plat8160",
        "--scale", "tiny", "--freqs", "1.0,3.7",
    ]

    def test_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "f [GHz]" in out and "szx" in out and "original" in out
        assert "4 points" in out

    def test_json_records(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        records = [r for r in wire if "__record__" in r]
        assert {r["__record__"] for r in records} == {"DvfsPoint"}
        assert {r["freq_ghz"] for r in records} == {1.0, 3.7}
        # Baseline psnr is emitted as the RFC-safe string form of infinity.
        baselines = [r for r in records if r["codec"] is None]
        assert baselines and all(r["psnr_db"] == "inf" for r in baselines)


class TestSweep:
    ARGS = [
        "sweep", "--kind", "quality", "--datasets", "cesm",
        "--codecs", "szx,sz3", "--bounds", "1e-2,1e-3", "--scale", "tiny",
    ]

    def test_quality_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "szx" in out and "sz3" in out and "ratio" in out
        assert "4 points: 4 computed, 0 cached" in out

    def test_json_output(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        records = [r for r in wire if "__record__" in r]
        assert len(records) == 4
        assert {r["__record__"] for r in records} == {"RoundtripRecord"}
        assert {r["codec"] for r in records} == {"szx", "sz3"}
        # The trailing element is the run telemetry, not a record.
        meta = wire[-1]["__meta__"]
        assert meta["engine"]["computed"] == 4
        assert meta["store"]["entries"] == 4
        assert meta["kind"] == "quality"

    def test_json_output_is_strict_even_with_infinite_psnr(self, capsys):
        import json

        # Lossless round-trips have psnr_db = inf; the emitted JSON must
        # stay RFC-valid (no bare Infinity tokens).
        assert (
            main(["sweep", "--kind", "lossless", "--datasets", "cesm",
                  "--codecs", "sz2", "--scale", "tiny", "--json"])
            == 0
        )
        out = capsys.readouterr().out
        records = json.loads(out, parse_constant=lambda c: pytest.fail(f"bare {c}"))
        assert records[0]["psnr_db"] == "inf"

    def test_spec_file_with_disk_cache_round_trip(self, tmp_path, capsys):
        from repro.runtime.spec import SweepSpec

        spec = SweepSpec(
            kind="io", datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
            io_libraries=("hdf5",),
        )
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(spec.to_json())
        cache = tmp_path / "cache"
        args = ["sweep", "--spec", str(spec_path), "--scale", "tiny",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 computed" in first and "original" in first
        # A second invocation answers the whole grid from the disk cache.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second and "2 cached" in second
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_serial_kind_prints_energy_columns(self, capsys):
        assert (
            main(["sweep", "--kind", "serial", "--datasets", "cesm",
                  "--codecs", "szx", "--bounds", "1e-3", "--scale", "tiny"])
            == 0
        )
        out = capsys.readouterr().out
        assert "E_comp [J]" in out and "max9480" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "a", "b", "--codec", "nope"])

    def test_help_epilog_mentions_sweep(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "repro sweep" in capsys.readouterr().out


class TestClosedPipe:
    """A reader that closes stdout early (``repro ... | head``) costs the
    command neither its exit status nor a BrokenPipeError traceback."""

    @pytest.mark.parametrize("argv, status", [
        (["codecs"], 0),
        # A collected failed point exits 1 after printing its table.
        (["sweep", "--kind", "dataset", "--datasets", "cesm", "--codecs", "szx",
          "--bounds", "1e-20", "--compression", "auto,rel,1e-2",
          "--io-libraries", "hdf5", "--scale", "tiny", "--on-error", "collect"], 1),
    ])
    def test_closed_stdout_keeps_the_status(self, argv, status):
        src = str(Path(__file__).resolve().parents[1] / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src),
            )
        finally:
            os.close(write_end)
        assert done.returncode == status
        assert "BrokenPipeError" not in done.stderr
        assert "Traceback" not in done.stderr
