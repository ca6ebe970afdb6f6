"""Figure 9: PSNR vs total energy, S3D, MAX 9480.

Paper shape: the mirror of Fig. 8 — higher fidelity costs more energy; QoZ
is the exception whose quality stays high regardless of the nominal bound.
"""

from conftest import run_once

from repro.core.report import format_table

BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
CODECS = ("sz2", "sz3", "zfp", "qoz", "szx")


def test_fig09_psnr_vs_energy(benchmark, testbed, emit):
    points = run_once(
        benchmark,
        lambda: testbed.run_sweep(
            "serial",
            datasets=("s3d",), codecs=CODECS, bounds=BOUNDS, cpus=("max9480",)
        ),
    )
    rows = [
        [
            p.codec,
            f"{p.rel_bound:.0e}",
            f"{p.roundtrip.psnr_db:.2f}",
            f"{p.total_energy_j:.0f}",
        ]
        for p in points
    ]
    text = format_table(
        ["codec", "REL", "PSNR [dB]", "total energy [J]"],
        rows,
        title="Fig. 9 - PSNR vs total energy, one S3D field, Intel Xeon CPU MAX 9480",
    )
    emit("fig09_psnr_vs_energy", text)

    by = {(p.codec, p.rel_bound): p for p in points}
    # Within every codec: more energy <-> higher PSNR across the bound sweep.
    for codec in CODECS:
        seq = [by[(codec, b)] for b in BOUNDS]
        psnrs = [p.roundtrip.psnr_db for p in seq]
        energies = [p.total_energy_j for p in seq]
        assert all(b >= a for a, b in zip(psnrs, psnrs[1:])), codec
        assert all(b >= a * 0.999 for a, b in zip(energies, energies[1:])), codec
    # QoZ's loose-bound PSNR beats SZ3's (quality-oriented tuning).
    assert (
        by[("qoz", 1e-1)].roundtrip.psnr_db >= by[("sz3", 1e-1)].roundtrip.psnr_db
    )
