"""Quickstart: compile a tiny MLP to the dataplane and classify packets.

Walks the whole Pegasus pipeline in ~30 seconds:

1. generate synthetic labelled traffic,
2. train a full-precision MLP on statistical features,
3. compile it — lower to Partition/Map/SumReduce, fuse, fuzzy-match,
   quantize, refine,
4. place it on a simulated Tofino-2 pipeline and verify bit-exactness,
5. serve a replayed packet trace through the `PegasusEngine` facade —
   one `EngineConfig`, one `ServingReport`.

Run:  python examples/quickstart.py
(`QUICKSTART_FLOWS_PER_CLASS` shrinks the dataset, e.g. for CI smoke runs.)
"""

import os

import numpy as np

from repro import EngineConfig, PegasusEngine
from repro.core import PegasusCompiler, CompilerConfig
from repro.dataplane import TOFINO2, place_model
from repro.eval.metrics import macro_f1
from repro.models import build_model
from repro.net import make_dataset
from repro.net.features import dataset_views

FLOWS_PER_CLASS = int(os.environ.get("QUICKSTART_FLOWS_PER_CLASS", "80"))


def main():
    print("=== 1. synthetic traffic ===")
    dataset = make_dataset("peerrush", flows_per_class=FLOWS_PER_CLASS, seed=0)
    train_flows, _val, test_flows = dataset.split(rng=0)
    train_views = dataset_views(train_flows)
    test_views = dataset_views(test_flows)
    print(f"classes: {dataset.class_names}; "
          f"{len(train_views['y'])} train windows, {len(test_views['y'])} test")

    print("\n=== 2. train the float model ===")
    model = build_model("MLP-B", dataset.n_classes, seed=0)
    model.train(train_views)
    f1_float = macro_f1(test_views["y"], model.predict_float(test_views))
    print(f"full-precision macro-F1: {f1_float:.3f}")

    print("\n=== 3. compile to Pegasus primitives ===")
    result = PegasusCompiler(CompilerConfig(fuzzy_leaves=256)).compile_sequential(
        model.net, train_views["stats"].astype(np.int64), name="quickstart")
    print(f"lookup rounds: {result.initial_lookup_rounds} -> "
          f"{result.fused_lookup_rounds} after Basic Primitive Fusion")
    print(result.program.describe())
    compiled = result.compiled
    f1_switch = macro_f1(test_views["y"],
                         compiled.predict(test_views["stats"].astype(np.int64)))
    print(f"dataplane macro-F1: {f1_switch:.3f} "
          f"(loss vs float: {f1_float - f1_switch:+.3f})")

    print("\n=== 4. place on the Tofino-2 pipeline ===")
    pipeline = place_model(compiled, TOFINO2)
    probe = test_views["stats"][:64].astype(np.int64)
    assert (pipeline.process(probe) == compiled.forward_int(probe)).all()
    print(f"stages used: {pipeline.n_stages_used}/{TOFINO2.n_stages}, "
          f"tables: {compiled.num_tables}, "
          f"SRAM: {compiled.sram_bits() / TOFINO2.total_sram_bits:.2%}, "
          f"TCAM: {compiled.tcam_bits() / TOFINO2.total_tcam_bits:.2%}")
    print("pipeline execution is bit-exact with the compiled model")

    print("\n=== 5. serve a live packet trace through the engine ===")
    config = EngineConfig(feature_mode="stats", batch_size=256,
                          decision_cache="l1", topology="sharded", n_workers=2)
    with PegasusEngine.from_compiled(compiled, config) as engine:
        report = engine.serve(test_flows)
    print(f"{report.n_decisions} per-packet decisions over "
          f"{report.n_packets} packets, accuracy {report.accuracy:.3f}")
    print(f"{report.pps:,.0f} pps ({config.n_workers} shards); "
          f"cache hit rate {report.cache_stats.hit_rate:.1%}")


if __name__ == "__main__":
    main()
