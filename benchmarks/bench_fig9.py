"""Figure 9: Pegasus (switch) vs full-precision CPU/GPU.

(a-c) accuracy: the compiled pipelines track the float models closely
(paper: ~1% average loss). (d) throughput: line-rate inference beats the
measured CPU path by orders of magnitude, independent of model size.
"""

import numpy as np

from repro.eval.reporting import render_table
from repro.eval.runner import run_fig9, PEGASUS_MODELS
from repro.net import DATASET_NAMES


def _run(scale):
    return run_fig9(flows_per_class=scale["flows_per_class"], seed=scale["seed"])


def test_fig9(bench_scale):
    results = _run(bench_scale)

    rows = []
    for model in PEGASUS_MODELS:
        row = [model]
        for ds in DATASET_NAMES:
            acc = results["accuracy"][ds][model]
            row += [acc["pegasus"], acc["float"]]
        rows.append(row)
    headers = ["model"]
    for ds in DATASET_NAMES:
        headers += [f"{ds}-switch", f"{ds}-float"]
    print()
    print(render_table(headers, rows, title="Figure 9a-c — switch vs CPU/GPU F1"))

    tp_rows = [[m, f"{t['pegasus']:.2e}", f"{t['gpu']:.2e}", f"{t['cpu']:.2e}",
                f"{t['pegasus'] / t['cpu']:.0f}x"]
               for m, t in results["throughput"].items()]
    print()
    print(render_table(["model", "switch pps", "gpu", "cpu", "switch/cpu"],
                       tp_rows, title="Figure 9d — throughput (samples/s)"))

    # Accuracy loss vs float stays bounded on average (paper: ~1%, we allow
    # more because our datasets/models are far smaller).
    losses = [results["accuracy"][d][m]["float"] - results["accuracy"][d][m]["pegasus"]
              for d in DATASET_NAMES for m in PEGASUS_MODELS]
    assert np.mean(losses) < 0.05
    # CNN-L specifically is nearly lossless (paper: 0.2-0.9%).
    cnn_l_loss = np.mean([results["accuracy"][d]["CNN-L"]["float"]
                          - results["accuracy"][d]["CNN-L"]["pegasus"]
                          for d in DATASET_NAMES])
    assert cnn_l_loss < 0.02
    # Throughput: switch >> GPU > CPU for every model.
    for t in results["throughput"].values():
        assert t["pegasus"] > 100 * t["gpu"] > 100 * t["cpu"] / 100
