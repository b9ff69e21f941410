"""Table 2: Pegasus (CNN-L) vs prior works — accuracy gain, model-size and
input-scale ratios. Derived from the Table 5 runs (shared cache)."""

from repro.eval.reporting import render_table
from repro.eval.runner import run_table2, run_table5


def _run(scale):
    table5 = run_table5(flows_per_class=scale["flows_per_class"], seed=scale["seed"])
    return run_table2(table5)


def test_table2(bench_scale):
    ratios = _run(bench_scale)
    rows = []
    for prior, entry in ratios.items():
        rows.append([prior,
                     f"{entry['accuracy_gain'] * 100:+.1f}%",
                     f"{entry.get('model_size_ratio', float('nan')):.0f}x",
                     f"{entry.get('input_scale_ratio', float('nan')):.0f}x"])
    print()
    print(render_table(["prior work", "accuracy", "model size", "input scale"],
                       rows, title="Table 2 — Pegasus vs prior works"))

    # Shapes: Pegasus gains accuracy over every prior work and scales the
    # input by 30x over N3IC/Leo and >100x over BoS.
    assert all(e["accuracy_gain"] > 0 for e in ratios.values())
    assert ratios["N3IC"]["input_scale_ratio"] == 3840 / 128
    assert ratios["BoS"]["input_scale_ratio"] > 100
    assert ratios["N3IC"]["model_size_ratio"] > 10
