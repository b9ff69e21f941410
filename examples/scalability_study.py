"""Scalability study: the knobs Pegasus trades accuracy against resources.

Sweeps, on one dataset:
1. fuzzy clustering depth (accuracy vs TCAM) — design ❹;
2. fusion level (lookup rounds / pipeline stages) — design ❺;
3. CNN-L per-flow storage variants (28 / 44 / 72 bits) — §7.3.

Serving throughput (batch size, topology, lookup backend, cache) is
measured by the serving benchmark instead: ``python3 perf/run.py``.

Run:  PYTHONPATH=src python examples/scalability_study.py
Expected runtime: ~10 seconds (documented in README.md).
"""

import numpy as np

from repro.core import PegasusCompiler, CompilerConfig
from repro.dataplane import place_model, TOFINO2
from repro.eval.metrics import macro_f1
from repro.models import build_model
from repro.models.cnn import CNNL
from repro.net import make_dataset
from repro.net.features import dataset_views


def main():
    dataset = make_dataset("peerrush", flows_per_class=100, seed=0)
    train_flows, _val, test_flows = dataset.split(rng=0)
    train_views = dataset_views(train_flows)
    test_views = dataset_views(test_flows)
    model = build_model("MLP-B", dataset.n_classes, seed=0)
    model.train(train_views)
    calib = train_views["stats"].astype(np.int64)
    test = test_views["stats"].astype(np.int64)

    print("=== 1. fuzzy depth: accuracy vs TCAM (design ❹) ===")
    print(f"{'leaves':>7s} {'F1':>7s} {'TCAM bits':>10s}")
    for leaves in (4, 16, 64, 256):
        compiled = PegasusCompiler(CompilerConfig(fuzzy_leaves=leaves)) \
            .compile_sequential(model.net, calib).compiled
        f1 = macro_f1(test_views["y"], compiled.predict(test))
        print(f"{leaves:7d} {f1:7.4f} {compiled.tcam_bits():10d}")

    print("\n=== 2. fusion level: lookup rounds and pipeline stages (design ❺) ===")
    print(f"{'fusion':>11s} {'rounds':>7s} {'stages':>7s} {'F1':>7s}")
    for level in ("none", "basic", "linearized"):
        result = PegasusCompiler(CompilerConfig(fusion=level, fuzzy_leaves=256)) \
            .compile_sequential(model.net, calib)
        pipeline = place_model(result.compiled, TOFINO2)
        f1 = macro_f1(test_views["y"], result.compiled.predict(test))
        print(f"{level:>11s} {result.fused_lookup_rounds:7d} "
              f"{pipeline.n_stages_used:7d} {f1:7.4f}")

    print("\n=== 3. CNN-L per-flow storage variants (§7.3) ===")
    print(f"{'variant':>8s} {'bits/flow':>10s} {'SRAM@1M':>8s} {'F1':>7s}")
    for idx_bits, use_ipd in ((4, False), (4, True), (8, True)):
        cnn = CNNL(dataset.n_classes, seed=0, idx_bits=idx_bits, use_ipd=use_ipd)
        cnn.train(train_views)
        cnn.compile_dataplane(train_views)
        f1 = macro_f1(test_views["y"], cnn.predict_dataplane(test_views))
        layout = cnn.flow_layout()
        sram = layout.sram_fraction(1_000_000, TOFINO2.total_sram_bits)
        print(f"{layout.bits_per_flow:7d}b {layout.bits_per_flow:10d} "
              f"{sram:8.1%} {f1:7.4f}")


if __name__ == "__main__":
    main()
