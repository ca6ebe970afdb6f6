"""Table III: compression ratio and PSNR for SZ3/ZFP/SZx on NYX/HACC/S3D.

Paper shape: CR falls and PSNR rises as the bound tightens; SZ3 posts the
largest ratios, ZFP the best PSNR at a given bound, SZx the lowest ratios.
"""

from conftest import run_once

from repro.core.report import format_table

BOUNDS = (1e-1, 1e-3, 1e-5)
CODECS = ("sz3", "zfp", "szx")
DATASETS = ("nyx", "hacc", "s3d")


def test_tab03_cr_psnr(benchmark, testbed, emit):
    rows = run_once(
        benchmark,
        lambda: testbed.run_sweep(
            "quality", datasets=DATASETS, codecs=CODECS, bounds=BOUNDS
        ),
    )
    by = {(r.dataset, r.codec, r.rel_bound): r for r in rows}
    table = []
    for ds in DATASETS:
        for b in BOUNDS:
            line = [ds.upper(), f"{b:.0e}"]
            for codec in CODECS:
                rec = by[(ds, codec, b)]
                line += [f"{rec.ratio:.2f}", f"{rec.psnr_db:.2f}"]
            table.append(line)
    headers = ["Data Set", "REL"]
    for codec in CODECS:
        headers += [f"{codec} CR", f"{codec} PSNR"]
    text = format_table(
        headers, table, title="Table III - Select EBLC Statistics (CR, PSNR dB)"
    )
    emit("tab03_cr_psnr", text)

    for ds in DATASETS:
        for codec in CODECS:
            crs = [by[(ds, codec, b)].ratio for b in BOUNDS]
            psnrs = [by[(ds, codec, b)].psnr_db for b in BOUNDS]
            assert crs[0] >= crs[1] >= crs[2], (ds, codec)
            assert psnrs[0] <= psnrs[1] <= psnrs[2], (ds, codec)
        # SZ3 highest ratio, ZFP best quality at 1e-3 (paper's ordering).
        assert by[(ds, "sz3", 1e-3)].ratio >= by[(ds, "szx", 1e-3)].ratio
        assert by[(ds, "zfp", 1e-3)].psnr_db >= by[(ds, "sz3", 1e-3)].psnr_db
