"""Split a closed-loop serve into a per-batch fixed cost and a per-row cost.

Serves one benchmark workload's trace on a cold engine at batch 32 and at
batch 256, alternating, and fits ``seconds = fixed * batches + per_row *
packets`` through the two medians: the per-batch fixed cost is what a batch
pays before it does any per-row work. Batch 4,096 is served beside them and
reported against the fit's prediction, as a check on the linear model::

    python scripts/batch_cost.py                          # hitters_base
    python scripts/batch_cost.py --workload mice_slots --repeats 7

The model and the traffic come from ``perf/`` (``harness.train_model`` and
``workloads``), read-only, so the numbers describe the benchmark's own
trace. Serves are closed loop, whatever the workload's mode.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# As in perf/run.py: no transparent huge pages for the 16 MiB of flow
# registers, whose availability differs from run to run. Set before NumPy
# is imported.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf.harness import train_model                # noqa: E402
from perf.workloads import WORKLOADS                # noqa: E402
from repro.serving import PegasusEngine             # noqa: E402

FIT_SIZES = (32, 256)
CHECK_SIZE = 4096


def serve_seconds(compiled, config, trace) -> tuple[float, int]:
    """Wall seconds of one cold ``start -> serve -> close``, and its batches."""
    engine = PegasusEngine.from_compiled(compiled, config)
    gc.collect()
    started = time.perf_counter()
    engine.start()
    try:
        report = engine.serve(trace.trace, labels=trace.labels)
    finally:
        engine.close()
    return time.perf_counter() - started, report.flush_stats.total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hitters_base",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic-generation seed (default 0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="serves per batch size (default 5)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    model, train_views = train_model()
    model.compile_dataplane(train_views)
    trace = workload.generate(args.seed)
    sizes = (*FIT_SIZES, CHECK_SIZE)
    configs = {b: replace(workload.config, batch_size=b) for b in sizes}
    serve_seconds(model.compiled, configs[FIT_SIZES[1]], trace)   # warm-up
    gc.freeze()             # the inputs are static: keep the collector off them

    seconds: dict[int, list[float]] = {b: [] for b in sizes}
    batches: dict[int, int] = {}
    for _ in range(args.repeats):
        for b in sizes:
            s, batches[b] = serve_seconds(model.compiled, configs[b], trace)
            seconds[b].append(s)
    median = {b: statistics.median(seconds[b]) for b in sizes}

    small, large = FIT_SIZES
    n = trace.n_packets
    fixed = (median[small] - median[large]) / (batches[small] - batches[large])
    per_row = (median[large] - fixed * batches[large]) / n
    print(f"{args.workload}: {n} packets, seed {args.seed}, "
          f"{args.repeats} alternating serves per batch size")
    for b in sizes:
        print(f"  batch {b:>5}: {batches[b]:>4} batches  "
              f"median {1e3 * median[b]:8.2f} ms  "
              f"pps {n / median[b]:>9.0f}")
    predicted = fixed * batches[CHECK_SIZE] + per_row * n
    print(f"batch_fixed_us {1e6 * fixed:.1f}")
    print(f"per_row_us {1e6 * per_row:.3f}")
    print(f"batch {CHECK_SIZE}: measured {1e3 * median[CHECK_SIZE]:.2f} ms, "
          f"fit predicts {1e3 * predicted:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
