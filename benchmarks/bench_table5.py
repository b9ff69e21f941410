"""Table 5: classification accuracy of every method on every dataset.

Paper's shape: MLP-B > N3IC; RNN-B > BoS (avg); CNN-M >= CNN-B; CNN-L best
everywhere by a wide margin.
"""

import numpy as np

from repro.eval.reporting import render_table
from repro.eval.runner import run_table5, CLASSIFIERS
from repro.net import DATASET_NAMES


def _run(scale):
    return run_table5(flows_per_class=scale["flows_per_class"], seed=scale["seed"])


def test_table5(bench_scale):
    results = _run(bench_scale)

    headers = ["method", "input(b)", "model(Kb)"]
    for ds in DATASET_NAMES:
        headers += [f"{ds}-PR", f"{ds}-RC", f"{ds}-F1"]
    rows = []
    for name in CLASSIFIERS:
        entry = results[name]
        row = [name, entry["input_bits"], round(entry["model_kbits"], 1)]
        for ds in DATASET_NAMES:
            r = entry["rows"][ds]
            row += [r["PR"], r["RC"], r["F1"]]
        rows.append(row)
    print()
    print(render_table(headers, rows, title="Table 5 — classification accuracy"))

    def avg_f1(name):
        return np.mean([results[name]["rows"][d]["F1"] for d in DATASET_NAMES])

    # The paper's ordering claims (on averages across datasets).
    assert avg_f1("MLP-B") > avg_f1("N3IC")
    assert avg_f1("RNN-B") > avg_f1("BoS") - 0.05
    assert avg_f1("CNN-L") == max(avg_f1(m) for m in CLASSIFIERS)
    assert avg_f1("CNN-L") > 0.9
