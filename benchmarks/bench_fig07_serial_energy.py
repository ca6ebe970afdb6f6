"""Figure 7: serial energy (compression + decompression stacked) across
datasets, error bounds and the three Table-I CPUs.

Paper shape: energy rises as the bound tightens (marked between 1e-3 and
1e-5); larger sets cost more; SZx and ZFP are the cheapest codecs; the
4-socket 8260M node posts the largest absolute energies.
"""

from conftest import run_once

from repro.core.report import format_series, format_stacked_bars
from repro.energy.cpus import PAPER_CPUS

BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
CODECS = ("sz2", "sz3", "zfp", "qoz", "szx")
DATASETS = ("cesm", "hacc", "nyx", "s3d")


def test_fig07_serial_energy(benchmark, testbed, emit):
    points = run_once(
        benchmark,
        lambda: testbed.run_sweep(
            "serial", datasets=DATASETS, codecs=CODECS, bounds=BOUNDS, cpus=PAPER_CPUS
        ),
    )
    by = {(p.cpu, p.dataset, p.codec, p.rel_bound): p for p in points}
    blocks = []
    for cpu in PAPER_CPUS:
        for ds in DATASETS:
            series = {
                codec: [by[(cpu, ds, codec, b)].total_energy_j for b in BOUNDS]
                for codec in CODECS
            }
            blocks.append(
                format_series(
                    f"Fig. 7 - {ds.upper()} serial energy [J] on {cpu}",
                    "REL bound",
                    [f"{b:.0e}" for b in BOUNDS],
                    series,
                    y_format="{:.0f}",
                )
            )
        # One stacked-bar panel per CPU at the tightest bound.
        entries = [
            (
                codec,
                by[(cpu, "s3d", codec, 1e-5)].compress_energy_j,
                by[(cpu, "s3d", codec, 1e-5)].decompress_energy_j,
            )
            for codec in CODECS
        ]
        blocks.append(
            format_stacked_bars(
                f"Fig. 7 (stacked, S3D @ 1e-5) on {cpu}", "codec", entries
            )
        )
    emit("fig07_serial_energy", "\n\n".join(blocks))

    # Shape assertions.
    for cpu in PAPER_CPUS:
        for ds in DATASETS:
            for codec in CODECS:
                es = [by[(cpu, ds, codec, b)].total_energy_j for b in BOUNDS]
                assert all(b >= a * 0.999 for a, b in zip(es, es[1:]))
    # SZx cheapest codec at every (cpu, dataset, bound).
    for cpu in PAPER_CPUS:
        for ds in DATASETS:
            for b in BOUNDS:
                others = [
                    by[(cpu, ds, c, b)].total_energy_j for c in CODECS if c != "szx"
                ]
                assert by[(cpu, ds, "szx", b)].total_energy_j <= min(others)
    # 8260M posts the largest energy for the SZ family.
    for ds in DATASETS:
        assert (
            by[("plat8260m", ds, "sz3", 1e-3)].total_energy_j
            > by[("max9480", ds, "sz3", 1e-3)].total_energy_j
        )
    # Section V-C factor: SZ3 energy grows ~7.2x from 1e-1 to 1e-5.
    g = (
        by[("max9480", "s3d", "sz3", 1e-5)].total_energy_j
        / by[("max9480", "s3d", "sz3", 1e-1)].total_energy_j
    )
    assert 5.0 < g < 9.0
