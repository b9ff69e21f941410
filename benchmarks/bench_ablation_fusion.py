"""Ablation: Primitive Fusion (Table 1 / Figure 5 design claims).

Measures lookup rounds, tables, and placement footprint of the same trained
MLP compiled with fusion off, basic fusion, and linearized (advanced ❷).
Shape: basic fusion collapses 10 operator rounds to 2 with no accuracy
cost; linearization reaches 1 round but loses accuracy.
"""

import numpy as np

from repro.core import PegasusCompiler, CompilerConfig
from repro.dataplane import place_model, TOFINO2
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
    out = []
    for level in ("none", "basic", "linearized"):
        result = PegasusCompiler(CompilerConfig(
            fusion=level, fuzzy_leaves=256)).compile_sequential(model.net, calib)
        pipeline = place_model(result.compiled, TOFINO2)
        f1 = macro_f1(test_v["y"],
                      result.compiled.predict(test_v["stats"].astype(np.int64)),
                      n_classes)
        out.append({
            "fusion": level,
            "rounds": result.fused_lookup_rounds,
            "tables": result.compiled.num_tables,
            "stages": pipeline.n_stages_used,
            "F1": f1,
        })
    return out


def test_ablation_fusion(bench_scale):
    rows = _run(bench_scale)
    print()
    print(render_table(["fusion", "rounds", "tables", "stages", "F1"],
                       [[r[k] for k in ("fusion", "rounds", "tables", "stages", "F1")]
                        for r in rows],
                       title="Ablation — primitive fusion levels"))
    none, basic, linear = rows
    assert none["rounds"] > basic["rounds"] > linear["rounds"] == 1
    assert basic["stages"] <= none["stages"]
    # Basic fusion is (near) lossless; linearization is the lossy extreme.
    assert basic["F1"] >= none["F1"] - 0.05
    assert basic["F1"] >= linear["F1"] - 0.02
