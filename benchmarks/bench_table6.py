"""Table 6: hardware resource utilization per method on the Tofino-2 model.

Paper's shape: CNN-M costs less than CNN-B despite the larger model
(Advanced Fusion); CNN-L's per-flow state is the smallest of the Pegasus
models; RNN-B and the AutoEncoder are the register-heavy rows (240 b/flow).
"""

from repro.eval.reporting import render_table
from repro.eval.runner import run_table6


def _run(scale):
    return run_table6(flows_per_class=scale["flows_per_class"], seed=scale["seed"])


def test_table6(bench_scale):
    rows = _run(bench_scale)
    table = [[r["model"], r["bits/flow"], f"{r['SRAM']:.2%}",
              f"{r['TCAM']:.2%}", f"{r['Bus']:.2%}"] for r in rows]
    print()
    print(render_table(["model", "bits/flow", "SRAM", "TCAM", "Bus"],
                       table, title="Table 6 — resource utilization (Tofino 2)"))

    by_name = {r["model"]: r for r in rows}
    # Stateful budgets match the paper's rows.
    assert by_name["Leo"]["bits/flow"] == 80
    assert by_name["BoS"]["bits/flow"] == 72
    assert by_name["RNN-B"]["bits/flow"] == 240
    assert by_name["AutoEncoder"]["bits/flow"] == 240
    assert by_name["CNN-L"]["bits/flow"] <= 72
    # Everything fits the switch.
    for r in rows:
        assert r["SRAM"] < 1.0 and r["TCAM"] < 1.0 and r["Bus"] <= 1.0
