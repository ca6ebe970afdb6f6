"""Figure 1: lossless versus EBLC compression ratios on the SDRBench sets.

Paper shape to reproduce: on QMCPack, ISABEL, CESM-ATM and EXAFEL, the
lossless codecs (zstd, C-Blosc2, fpzip, FPC) land in low single digits while
the EBLC band (SZ2, ZFP) reaches tens of x.
"""

from conftest import run_once

from repro.core.report import format_table
from repro.data.registry import FIG1_DATASETS


def test_fig01_lossless_vs_eblc(benchmark, testbed, emit):
    rows = run_once(
        benchmark,
        lambda: testbed.run_sweep(
            "lossless",
            datasets=FIG1_DATASETS,
            codecs=("sz2", "zfp"),
            lossless_codecs=("zstd", "blosc", "fpzip", "fpc"),
            rel_bound=1e-2,
        ),
    )
    by = {(r.dataset, r.codec): r for r in rows}
    codecs = ["zstd", "blosc", "fpzip", "fpc", "sz2", "zfp"]
    table = [
        [ds] + [f"{by[(ds, c)].ratio:.2f}" for c in codecs] for ds in FIG1_DATASETS
    ]
    text = format_table(
        ["dataset"] + codecs,
        table,
        title="Fig. 1 - Compression ratio: lossless (zstd/blosc/fpzip/fpc) vs EBLC (sz2/zfp @ eps=1e-2)",
    )
    emit("fig01_lossless_vs_eblc", text)

    # Shape assertions: every EBLC beats every lossless codec per dataset.
    for ds in FIG1_DATASETS:
        best_lossless = max(by[(ds, c)].ratio for c in codecs[:4])
        worst_eblc = min(by[(ds, c)].ratio for c in codecs[4:])
        assert worst_eblc > best_lossless, ds
