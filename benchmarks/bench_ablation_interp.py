"""Ablation: interpolation order — fixed linear vs fixed cubic vs dynamic.

DESIGN.md question: SZ3's dynamic per-(level, dimension) selection is the
paper's "dynamic spline interpolation"; how much ratio does it buy over
forcing one order everywhere?
"""

import numpy as np
from conftest import run_once

from repro.compressors import interpolation as interp
from repro.compressors.huffman import huffman_encode
from repro.core.report import format_table
from repro.data import generate


def _encode_with_forced_mode(data, eb, forced):
    """Re-run the engine with _predict forced to one interpolator.

    The encoder calls ``_predict`` once per trial mode, the CUBIC trial
    with the LINEAR prediction as an optional fourth argument.
    """
    original = interp._predict

    def patched(recon, plan, mode, *linear):
        return original(recon, plan, forced, *linear)

    interp._predict = patched
    try:
        anchors, modes, codes, outliers, recon = interp.interp_encode(data, eb)
    finally:
        interp._predict = original
    payload = len(huffman_encode(codes)) + outliers.nbytes + anchors.nbytes
    return payload


def test_ablation_interpolation_order(benchmark, emit):
    data = np.array(generate("nyx", "test"), dtype=np.float64)
    eb = 1e-3 * float(data.max() - data.min())

    def build():
        anchors, modes, codes, outliers, _ = interp.interp_encode(data, eb)
        dyn_payload = len(huffman_encode(codes)) + outliers.nbytes + anchors.nbytes
        lin = _encode_with_forced_mode(data, eb, interp.LINEAR)
        cub = _encode_with_forced_mode(data, eb, interp.CUBIC)
        cubic_share = float(np.mean([m == interp.CUBIC for m in modes]))
        return dyn_payload, lin, cub, cubic_share

    dyn, lin, cub, cubic_share = run_once(benchmark, build)
    # Forcing goes through the `_predict` seam; if the encoder stopped
    # calling it, both forced runs would silently repeat the dynamic one.
    assert lin != cub, "forced-mode patch of interp._predict had no effect"
    rows = [
        ["dynamic (SZ3)", f"{data.nbytes / dyn:.2f}", f"{cubic_share * 100:.0f}% cubic passes"],
        ["fixed linear", f"{data.nbytes / lin:.2f}", ""],
        ["fixed cubic", f"{data.nbytes / cub:.2f}", ""],
    ]
    text = format_table(
        ["interpolator", "approx CR", "notes"],
        rows,
        title="Ablation - interpolation order on NYX @ eps=1e-3",
    )
    emit("ablation_interp", text)

    # Dynamic selection must never lose to the worse fixed choice and must
    # match (or beat, within noise) the better fixed choice.
    assert dyn <= max(lin, cub)
    assert dyn <= min(lin, cub) * 1.05
