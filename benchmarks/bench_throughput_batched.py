"""Throughput: batched vectorized replay vs per-packet replay.

The batched runtime groups trace packets into NumPy batches, keeps flow
state in preallocated slot-indexed register arrays, and calls the compiled
model once per batch; this bench measures the packets/sec that buys on the
Figure-8 serving workload (benign traffic + unknown attacks) at batch sizes
{1, 32, 256, 1024} and shard counts {1, 4}, every stack built by
``PegasusEngine`` from one ``EngineConfig``. The tentpole target — >= 5x
pps at batch 256 over batch 1 — is asserted, as is decision-count
invariance across every configuration (batching must never change what the
switch decides). ``small_batch_efficiency = pps[32] / pps[256]`` records how
much of that a latency-sized batch keeps (ROADMAP target 0.5; CI floor 0.2
in the baseline). Results land in the ``batched`` section of
``BENCH_serving.json`` for the CI regression gate.
"""

from repro.eval.reporting import render_table, update_bench_json
from repro.eval.runner import run_batched_throughput


def _run(scale):
    return run_batched_throughput(flows_per_class=scale["flows_per_class"],
                                  seed=scale["seed"])


def test_throughput_batched(benchmark, bench_scale):
    res = benchmark.pedantic(_run, args=(bench_scale,), rounds=1, iterations=1)
    rows = [[f"batch={b}", cfg["pps"], "-", cfg["decisions"]]
            for b, cfg in sorted(res["batch"].items())]
    rows += [[f"shards={s}", cfg["pps"], cfg["pps_parallel"], cfg["decisions"]]
             for s, cfg in sorted(res["shards"].items())]
    print()
    print(render_table(
        ["config", "pps", "pps_parallel", "decisions"], rows,
        title=f"Batched dataplane throughput — {res['n_packets']} packets, "
              f"batch-256 speedup {res['speedup_256_vs_1']:.1f}x, "
              f"batch-32 efficiency {res['small_batch_efficiency']:.2f}"))

    update_bench_json("batched", {
        "n_packets": res["n_packets"],
        "pps": {b: cfg["pps"] for b, cfg in res["batch"].items()},
        "speedup_256_vs_1": res["speedup_256_vs_1"],
        "small_batch_efficiency": res["small_batch_efficiency"],
    })

    # Batching amortizes per-packet Python/NumPy overhead: >= 5x at 256.
    assert res["speedup_256_vs_1"] >= 5.0
    # Batch size and sharding change throughput, never the decisions.
    counts = {cfg["decisions"] for cfg in res["batch"].values()}
    counts |= {cfg["decisions"] for cfg in res["shards"].values()}
    assert len(counts) == 1
