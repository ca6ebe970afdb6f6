"""Figure 10: OpenMP energy vs thread count (1..64) at eps = 1e-3.

Paper shape: energy falls with threads and plateaus; SZx scales best (~6x on
S3D/Sapphire Rapids), SZ3 scales well, SZ2 and ZFP effectively do not; the
benefit is weakest for the small CESM set.
"""

from conftest import run_once

from repro.core.report import format_series
from repro.energy.cpus import PAPER_CPUS

THREADS = (1, 2, 4, 8, 16, 32, 64)
CODECS = ("sz2", "sz3", "zfp", "qoz", "szx")
DATASETS = ("cesm", "hacc", "nyx", "s3d")


def test_fig10_openmp_energy(benchmark, testbed, emit):
    points = run_once(
        benchmark,
        lambda: testbed.run_sweep(
            "thread", datasets=DATASETS, codecs=CODECS, threads=THREADS, cpus=PAPER_CPUS
        ),
    )
    by = {(p.cpu, p.dataset, p.codec, p.threads): p for p in points}
    blocks = []
    for cpu in PAPER_CPUS:
        for ds in DATASETS:
            series = {
                codec: [by[(cpu, ds, codec, t)].total_energy_j for t in THREADS]
                for codec in CODECS
            }
            blocks.append(
                format_series(
                    f"Fig. 10 - {ds.upper()} OpenMP energy [J] @ eps=1e-3 on {cpu}",
                    "threads",
                    list(THREADS),
                    series,
                    y_format="{:.0f}",
                )
            )
    emit("fig10_openmp", "\n\n".join(blocks))

    # Shape: scaling factors on S3D / Sapphire Rapids.
    def reduction(codec):
        e1 = by[("max9480", "s3d", codec, 1)].total_energy_j
        e64 = by[("max9480", "s3d", codec, 64)].total_energy_j
        return e1 / e64

    assert reduction("szx") > 3.5  # paper: ~6x
    assert reduction("sz3") > 2.0  # scales well
    assert reduction("zfp") < 1.3  # paper: no benefit
    assert reduction("sz2") < 1.3
    # CESM benefits least among datasets for the scaling codecs.
    czx = (
        by[("max9480", "cesm", "szx", 1)].total_energy_j
        / by[("max9480", "cesm", "szx", 64)].total_energy_j
    )
    assert czx <= reduction("szx") * 1.05
