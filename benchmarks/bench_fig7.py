"""Figure 7: CNN-L accuracy vs per-flow storage (28 / 44 / 72 bits).

Paper's shape: accuracy rises with per-flow bits, and even the 28-bit
variant stays within a few points of the full model while using less
stateful SRAM than Leo/N3IC (80 b) and BoS (72 b).
"""

from repro.eval.reporting import render_table
from repro.eval.runner import run_fig7
from repro.net import DATASET_NAMES


def _run(scale):
    return run_fig7(flows_per_class=scale["flows_per_class"], seed=scale["seed"])


def test_fig7(bench_scale):
    variants = _run(bench_scale)
    rows = [[v["label"], v["bits_per_flow"], f"{v['sram_frac_1m']:.1%}"]
            + [v["f1"][d] for d in DATASET_NAMES] for v in variants]
    print()
    print(render_table(["variant", "bits/flow", "SRAM@1M", *DATASET_NAMES],
                       rows, title="Figure 7 — accuracy vs per-flow storage"))

    assert [v["bits_per_flow"] for v in variants] == [28, 44, 72]
    # More per-flow state never hurts much; 72b >= 28b on average.
    def avg(v):
        return sum(v["f1"].values()) / len(v["f1"])
    assert avg(variants[2]) >= avg(variants[0]) - 0.02
    # Even 28 bits/flow keeps CNN-L strong (paper: >= 0.92 everywhere).
    assert avg(variants[0]) > 0.85
    # SRAM for 1M flows scales linearly with bits/flow.
    assert variants[2]["sram_frac_1m"] > variants[0]["sram_frac_1m"]
