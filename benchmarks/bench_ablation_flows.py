"""Ablation: concurrent-flow capacity vs per-flow state (paper §7.3).

Per-flow registers are the scarce stateful resource: a model storing B bits
per flow supports SRAM/B concurrent flows before eviction. This bench
replays the same trace through runtimes with shrinking register capacity
and measures how eviction (state loss mid-flow) degrades packet-level
accuracy — the pressure that motivates CNN-L's 28-44 bit layouts.
"""

import numpy as np

from repro.dataplane.runtime import WindowedClassifierRuntime
from repro.eval.reporting import render_table
from repro.eval.runner import train_and_eval_model
from repro.net import make_dataset


def _run(scale):
    flows_per_class = scale["flows_per_class"]
    seed = scale["seed"]
    row = train_and_eval_model("MLP-B", "peerrush", flows_per_class, seed)
    model = row["_model"]
    ds = make_dataset("peerrush", flows_per_class=flows_per_class, seed=seed)
    _train, _val, test_flows = ds.split(rng=seed)

    out = []
    for capacity in (1_000_000, 64, 16, 4):
        runtime = WindowedClassifierRuntime(model.compiled, feature_mode="stats",
                                            capacity=capacity)
        decisions = runtime.process_flows(test_flows)
        acc = float(np.mean(decisions.predicted == decisions.flow_label)) \
            if len(decisions) else 0.0
        out.append({
            "capacity": capacity,
            "decisions": len(decisions),
            "evictions": runtime.state.evictions,
            "accuracy": acc,
            "sram_bits_needed": runtime.bits_per_flow * capacity,
        })
    return out


def test_ablation_flow_capacity(bench_scale):
    rows = _run(bench_scale)
    print()
    print(render_table(
        ["capacity", "decisions", "evictions", "accuracy"],
        [[r["capacity"], r["decisions"], r["evictions"], r["accuracy"]]
         for r in rows],
        title="Ablation — concurrent-flow register capacity"))

    full, *_rest, tiny = rows
    # Ample capacity: no evictions. Tiny capacity: constant eviction churn
    # that suppresses decisions (windows never fill) and/or accuracy.
    assert full["evictions"] == 0
    assert tiny["evictions"] > 0
    assert tiny["decisions"] <= full["decisions"]
