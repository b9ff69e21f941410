"""Ablation: fuzzy-matching depth (clusters per table) vs accuracy and TCAM.

Shape: accuracy rises with leaves and saturates; TCAM cost rises
monotonically — the trade-off fuzzy matching exposes (design ❹).
Also quantifies CRC's ternary-entry savings versus naive range expansion.
"""

import numpy as np

from repro.core import PegasusCompiler, CompilerConfig
from repro.core.crc import consecutive_range_coding, naive_partition_entries
from repro.eval.metrics import macro_f1
from repro.eval.reporting import render_table
from repro.eval.runner import prepare_dataset
from repro.models import build_model


def _run(scale):
    train_v, _v, test_v, n_classes = prepare_dataset(
        "peerrush", scale["flows_per_class"], scale["seed"])
    model = build_model("MLP-B", n_classes, seed=scale["seed"])
    model.train(train_v)
    calib = train_v["stats"].astype(np.int64)
    rows = []
    for leaves in (4, 16, 64, 256):
        result = PegasusCompiler(CompilerConfig(
            fuzzy_leaves=leaves)).compile_sequential(model.net, calib)
        f1 = macro_f1(test_v["y"],
                      result.compiled.predict(test_v["stats"].astype(np.int64)),
                      n_classes)
        rows.append({"leaves": leaves, "F1": f1,
                     "tcam_bits": result.compiled.tcam_bits(),
                     "sram_bits": result.compiled.sram_bits()})
    return rows


def test_ablation_fuzzy_depth(bench_scale):
    rows = _run(bench_scale)
    print()
    print(render_table(["leaves", "F1", "TCAM(b)", "SRAM(b)"],
                       [[r["leaves"], r["F1"], r["tcam_bits"], r["sram_bits"]]
                        for r in rows],
                       title="Ablation — fuzzy clusters per table"))
    f1s = [r["F1"] for r in rows]
    tcam = [r["tcam_bits"] for r in rows]
    assert f1s[-1] > f1s[0]                      # more clusters help
    assert all(a <= b for a, b in zip(tcam, tcam[1:]))  # and cost more TCAM


def _crc_counts():
    rng = np.random.default_rng(0)
    crc_total, naive_total = 0, 0
    for _ in range(50):
        bounds = sorted(rng.choice(np.arange(1, 255), size=7, replace=False))
        crc_total += len(consecutive_range_coding([int(b) for b in bounds], 8))
        naive_total += naive_partition_entries([int(b) for b in bounds], 8)
    return crc_total, naive_total


def test_crc_saves_entries():
    """CRC vs naive per-range expansion on learned (non-aligned) thresholds."""
    crc_total, naive_total = _crc_counts()
    print(f"\nCRC entries: {crc_total}, naive entries: {naive_total} "
          f"({naive_total / crc_total:.2f}x saving)")
    assert crc_total < naive_total
