"""The serving benchmark's one command.

    python3 perf/run.py                        # all six workloads, end to end
    python3 perf/run.py --trace                # ... plus the per-layer pass
    python3 perf/run.py --workload hitters_base --seed 3 --seconds 12
    python3 perf/run.py --quick                # smoke run, checked against
                                               # BENCHMARK.json

With ``--workload`` the workload is measured in this process and the last
line of stdout is the result object the benchmark contract asks for; without
it every workload runs in a subprocess of its own (clean peak RSS, clean
patches, clean fork state). The exit code is non-zero when any decision
differed from the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure under {ROOT / 'src'}")
# NumPy asks for transparent huge pages for arrays of 4 MiB and more (the flow
# registers are 16 MiB); whether the VM has any to give differs from run to
# run (peak RSS read 57 or 72 MiB for the same run). Must be set before NumPy
# is imported.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import harness                        # noqa: E402
from perf.workloads import WORKLOADS            # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]}
# Printed with the end-to-end metrics but not gated. failed_fraction is
# carried by the result object's correct/attempted/failed and shed_fraction
# by openloop.shed_fraction (the contract wants every end-to-end metric to be
# a non-zero number on every workload); peak_rss_mb is not steady enough.
DERIVED_UNITS = {"failed_fraction": "ratio", "shed_fraction": "ratio",
                 "peak_rss_mb": "MiB"}


def contract_line(record: dict, kind: str) -> str:
    """The result object for the driver: numbers only (a metric the workload
    does not exercise, or whose span is gone, reads 0)."""
    metrics = {}
    for spec in BENCHMARK[kind]:
        value = record[kind][spec["name"]]["value"]
        metrics[spec["name"]] = {
            "value": 0.0 if isinstance(value, str) else value,
            "unit": spec["unit"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def validate(record: dict) -> list[str]:
    """Mismatches between one result record and ``BENCHMARK.json``."""
    problems = []
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"] for m in BENCHMARK[kind]}
        have = record.get(kind)
        if have is None:
            problems.append(f"{record['workload']}: no {kind} metrics")
            continue
        extra = set(have) - declared - set(DERIVED_UNITS)
        for name in sorted(declared - set(have)):
            problems.append(f"{record['workload']}: {kind} {name} missing")
        for name in sorted(extra):
            problems.append(f"{record['workload']}: {name} not declared")
        for name, summary in have.items():
            value = summary["value"]
            if value is None or (kind == "end_to_end" and name in declared
                                 and not isinstance(value, (int, float))):
                problems.append(f"{record['workload']}: {name} = {value!r}")
    return problems


def print_record(record: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        have = record.get(kind)
        if have is None:
            continue
        names = [m["name"] for m in BENCHMARK[kind]]
        names += [n for n in DERIVED_UNITS if n in have and n not in names]
        for name in names:
            s = have[name]
            value = s["value"]
            text = value if isinstance(value, str) else f"{value:.6g}"
            spread = f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]" \
                if "q1" in s else ""
            print(f"{record['workload']:<14}{name:<30}{text:>14} "
                  f"{UNITS.get(name) or DERIVED_UNITS[name]:<10} "
                  f"n={s['n']}{spread}")


def measure(args) -> int:
    """Measure one workload in this process."""
    record = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds,
        trace_pass=bool(args.trace) or args.quick, quick=args.quick)
    out = Path(args.out) if args.out else harness.OUT_DIR / (
        f"{args.workload}-seed{args.seed}-"
        f"{'trace' if 'per_layer' in record else 'e2e'}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    for path in record.get("trace_unresolved", ()):
        print(f"{args.workload:<14}trace.unresolved: {path}")
    problems = validate(record) if args.quick else []
    for line in problems:
        print("MISMATCH " + line)
    print(contract_line(record, "per_layer" if args.trace else "end_to_end"))
    return 0 if record["correct"] and not problems else 1


def measure_all(args) -> int:
    """Measure every workload, each in a subprocess of its own."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode:
            status = 1
            print(f"{name}: FAILED (exit {done.returncode})\n{done.stderr}")
    missing = {w["name"] for w in BENCHMARK["workloads"]} ^ set(WORKLOADS)
    if missing:
        status = 1
        print(f"MISMATCH workloads differ from BENCHMARK.json: {missing}")
    print("ok" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic-generation seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="seconds of timed serves per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the per-layer traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="1/8-scale smoke run of both passes, validated "
                             "against BENCHMARK.json")
    parser.add_argument("--out", help="result file (default: perf/out/...)")
    args = parser.parse_args(argv)
    return measure(args) if args.workload else measure_all(args)


if __name__ == "__main__":
    # A terminated run leaves through the same door as a finished one, and
    # every way out stops and reaps what the run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        status = main()
    finally:
        harness.stop_children()
    sys.exit(status)
