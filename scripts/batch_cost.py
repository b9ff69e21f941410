"""Split a closed-loop serve into a per-step fixed cost and a per-row cost.

Serves one benchmark workload's trace on a cold engine with the register
step (``repro.dataplane.runtime.REGISTER_STEP_ROWS``) set to each of 256,
1,024, 4,096 and 16,384 rows, alternating, and fits ``seconds = fixed *
steps + per_row * packets`` through the medians of the two shortest steps:
the per-step fixed cost is what a register step pays before it does any
per-row work. The longer steps are reported against the fit's prediction,
as a check on the linear model: a step whose working set outgrows the
caches runs slower than the fit predicts::

    python scripts/batch_cost.py                          # hitters_base
    python scripts/batch_cost.py --workload mice_slots --repeats 7

The model and the traffic come from ``perf/`` (``harness.train_model`` and
``workloads``), read-only, so the numbers describe the benchmark's own
trace. Serves are closed loop, whatever the workload's mode; a ``parallel``
workload steps registers in worker processes, which see the constant only
as it was when they started (and not at all under ``spawn``), so only
in-process workloads are offered.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from pathlib import Path

# As in perf/run.py: no transparent huge pages for NumPy's large
# allocations, whose availability differs from run to run (the flow
# registers opt out on their own mapping). Set before NumPy is imported.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf.harness import train_model                # noqa: E402
from perf.workloads import WORKLOADS                # noqa: E402
from repro.dataplane import runtime                 # noqa: E402
from repro.serving import PegasusEngine             # noqa: E402

FIT_STEPS = (256, 1024)
CHECK_STEPS = (4096, 16384)
IN_PROCESS = sorted(name for name, w in WORKLOADS.items()
                    if w.config.topology != "parallel")


def serve_seconds(compiled, config, trace, step: int) -> tuple[float, int]:
    """Wall seconds of one cold ``start -> serve -> close`` in ``step``-row
    register steps, and the steps it ran."""
    runtime.REGISTER_STEP_ROWS = step
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
                        choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic-generation seed (default 0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="serves per step size (default 5)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    model, train_views = train_model()
    model.compile_dataplane(train_views)
    trace = workload.generate(args.seed)
    config = workload.config
    sizes = (*FIT_STEPS, *CHECK_STEPS)
    default_step = runtime.REGISTER_STEP_ROWS
    try:
        serve_seconds(model.compiled, config, trace, default_step)  # warm-up
        gc.freeze()         # the inputs are static: keep the collector off them
        seconds: dict[int, list[float]] = {b: [] for b in sizes}
        steps: dict[int, int] = {}
        for _ in range(args.repeats):
            for b in sizes:
                s, steps[b] = serve_seconds(model.compiled, config, trace, b)
                seconds[b].append(s)
    finally:
        runtime.REGISTER_STEP_ROWS = default_step
    median = {b: statistics.median(seconds[b]) for b in sizes}

    short, long = FIT_STEPS
    n = trace.n_packets
    fixed = (median[short] - median[long]) / (steps[short] - steps[long])
    per_row = (median[long] - fixed * steps[long]) / n
    print(f"{args.workload}: {n} packets, seed {args.seed}, "
          f"{args.repeats} alternating serves per step size "
          f"(default step {default_step})")
    for b in sizes:
        print(f"  step {b:>6}: {steps[b]:>4} steps  "
              f"median {1e3 * median[b]:8.2f} ms  "
              f"pps {n / median[b]:>9.0f}")
    print(f"step_fixed_us {1e6 * fixed:.1f}")
    print(f"per_row_us {1e6 * per_row:.3f}")
    for b in CHECK_STEPS:
        predicted = fixed * steps[b] + per_row * n
        print(f"step {b}: measured {1e3 * median[b]:.2f} ms, "
              f"fit predicts {1e3 * predicted:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
