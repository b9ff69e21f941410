"""Figure 8: AutoEncoder ROC/AUC against unknown attacks (trained on benign).

Paper's shape: high AUC for every malware family and near-perfect AUC for
the SSDP flood, on all three datasets.
"""

import numpy as np

from repro.eval.reporting import render_table
from repro.eval.runner import run_fig8
from repro.net import DATASET_NAMES, ATTACK_NAMES


def _run(scale):
    return run_fig8(flows_per_class=scale["flows_per_class"], seed=scale["seed"])


def test_fig8(bench_scale):
    results = _run(bench_scale)
    rows = []
    for attack in ATTACK_NAMES:
        rows.append([attack] + [results[d][attack]["auc"] for d in DATASET_NAMES])
    print()
    print(render_table(["attack", *DATASET_NAMES], rows,
                       title="Figure 8 — AutoEncoder AUC per unknown attack"))

    aucs = np.array([[results[d][a]["auc"] for a in ATTACK_NAMES]
                     for d in DATASET_NAMES])
    # Unknown attacks are detectable well above chance everywhere...
    assert aucs.mean() > 0.8
    assert aucs.min() > 0.55
    # ...and the flood (distributionally farthest from benign) is easiest.
    flood = np.mean([results[d]["Flood"]["auc"] for d in DATASET_NAMES])
    assert flood > 0.9
    # ROC curves are valid curves.
    fpr, tpr = results[DATASET_NAMES[0]][ATTACK_NAMES[0]]["fpr"], \
        results[DATASET_NAMES[0]][ATTACK_NAMES[0]]["tpr"]
    assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()
