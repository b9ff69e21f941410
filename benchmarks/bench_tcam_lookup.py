"""TCAM-vs-index lookup throughput: what hardware-faithful emulation costs.

``lookup_backend="tcam"`` answers every fuzzy segment table through the
vectorized prioritized-TCAM engine — the packed (value, mask, priority)
entries the switch would actually hold — instead of traversing the flat
clustering-tree arrays. This bench measures the backends at the model level
(``forward_int`` rows/sec on one large batch) and end to end (serving pps on
the Figure-8 mix through a ``PegasusEngine`` with ``lookup_backend`` as the
one switched knob), asserts the decision streams are bit-identical, and
records the numbers in the ``tcam`` section of ``BENCH_serving.json`` so the
trajectory artifact tracks the fidelity path's cost alongside the fast
path's wins.

Two host-independent ratios over the full-scan emulation carry the claims:
``pruned_over_tcam`` (candidate pruning pays: asserted here) and
``index_over_tcam`` (the array-encoded index is the fast path: gated by
``scripts/check_bench_regression.py`` against the committed baseline).
"""

from repro.eval.reporting import render_table, update_bench_json
from repro.eval.runner import run_tcam_throughput


def _run(scale):
    return run_tcam_throughput(flows_per_class=scale["flows_per_class"],
                               seed=scale["seed"])


def test_tcam_lookup_throughput(benchmark, bench_scale):
    res = benchmark.pedantic(_run, args=(bench_scale,), rounds=1, iterations=1)
    rows = [[backend, res["model_rows_per_s"][backend],
             res["serving_pps"][backend], res["decisions"]]
            for backend in ("index", "tcam", "tcam-pruned")]
    print()
    print(render_table(
        ["backend", "model_rows/s", "serving_pps", "decisions"], rows,
        title=f"TCAM vs index lookups — {res['n_packets']} packets, "
              f"{res['tcam_tables']} fuzzy tables / "
              f"{res['tcam_entries_total']} TCAM entries, "
              f"over full-scan tcam: index {res['index_over_tcam']:.2f}x, "
              f"pruned {res['pruned_over_tcam']:.2f}x"))

    update_bench_json("tcam", {
        "n_packets": res["n_packets"],
        "tcam_entries_total": res["tcam_entries_total"],
        "model_rows_per_s": res["model_rows_per_s"],
        "serving_pps": res["serving_pps"],
        "index_over_tcam": res["index_over_tcam"],
        "pruned_over_tcam": res["pruned_over_tcam"],
        "matches_index": res["matches_index"],
    })

    # Fidelity is the point: the emulated TCAM may be slower, never different.
    assert res["matches_index"]
    assert res["decisions"] > 0
    # The pruned kernel is the fast hardware-faithful path: candidate-subset
    # matching must serve at least 1.5x the full-scan emulation.
    assert res["pruned_over_tcam"] >= 1.5
