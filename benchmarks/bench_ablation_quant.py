"""Ablation: activation precision (design ❸ — full-precision weights with
fixed-point activations) and the §4.4 mapping optimization.

Shape: adaptive fixed-point formats dominate naive fixed formats; the
least-squares centroid refinement never hurts and usually helps.
"""

import numpy as np

from repro.core import PegasusCompiler, CompilerConfig
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
    test = test_v["stats"].astype(np.int64)
    rows = []
    for bits in (4, 6, 8, 16):
        for refine in (False, True):
            result = PegasusCompiler(CompilerConfig(
                act_bits=bits, fuzzy_leaves=256,
                refine=refine)).compile_sequential(model.net, calib)
            f1 = macro_f1(test_v["y"], result.compiled.predict(test), n_classes)
            rows.append({"act_bits": bits, "refine": refine, "F1": f1})
    return rows


def test_ablation_quantization(bench_scale):
    rows = _run(bench_scale)
    print()
    print(render_table(["act bits", "LS refine", "F1"],
                       [[r["act_bits"], r["refine"], r["F1"]] for r in rows],
                       title="Ablation — activation precision x refinement"))
    by_key = {(r["act_bits"], r["refine"]): r["F1"] for r in rows}
    # 4-bit activations are too coarse; 8-bit recovers most accuracy.
    assert by_key[(8, True)] > by_key[(4, True)] - 0.02
    # Refinement helps (or at least does not hurt) at the paper's 8 bits.
    assert by_key[(8, True)] >= by_key[(8, False)] - 0.02
