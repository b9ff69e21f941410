"""Compare two sets of benchmark results: parent (A) against change (B).

    python3 perf/compare.py A B

``A`` and ``B`` are result files written by ``perf/run.py`` or directories of
them (one file per run; ten alternating pairs is the rule for a claim). Per
workload and end-to-end metric the table gives both medians with quartiles,
the change in the metric's good direction, the bound from ``BENCHMARK.json``
and a verdict:

- ``unresolved``  the run-to-run spread (IQR / median) of either side is wider
  than the bound, unless every run of B beats every run of A;
- ``regressed``   B's median is worse than A's by more than the bound;
- ``improved``    B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's own IQR;
- ``unchanged``   otherwise.

With one file a side, the quartiles come from that run's per-repeat values.
The per-layer medians of traced results follow, without verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    """Every result record in a file or directly inside a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        try:
            record = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and record.get("schema") == 1:
            records.append(record)
    return records


def samples(records: list[dict], workload: str, kind: str,
            name: str) -> list[float]:
    """One value per run; a lone run falls back to its per-repeat values."""
    runs = [r for r in records if r["workload"] == workload and kind in r]
    values = [r[kind][name]["value"] for r in runs if name in r[kind]]
    values = [v for v in values if isinstance(v, (int, float))]
    if len(runs) == 1 and kind == "end_to_end":
        raw = runs[0].get("raw", {}).get(name, [])
        if len(raw) > 1:
            return list(raw)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """``(gain, verdict)``; gain > 0 means B is better, as a share of A."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    gain = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    clean_sweep = min(sign * v for v in b) > max(sign * v for v in a)
    if spread > bound and not clean_sweep:
        return gain, "unresolved"
    if gain < -bound:
        return gain, "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return gain, "improved"
    return gain, "unchanged"


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a_records: list[dict], b_records: list[dict]) -> list[str]:
    lines = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for spec in BENCHMARK["end_to_end"]:
            a = samples(a_records, workload, "end_to_end", spec["name"])
            b = samples(b_records, workload, "end_to_end", spec["name"])
            if not a or not b:
                continue
            gain, word = verdict(a, b, spec["better"], spec["bound"])
            lines.append(
                f"{workload:<14}{spec['name']:<20}{_cell(a):<44}{_cell(b):<44}"
                f"{100 * gain:+8.2f}%  bound {100 * spec['bound']:.0f}%  "
                f"{word}")
        for spec in BENCHMARK["per_layer"]:
            a = samples(a_records, workload, "per_layer", spec["name"])
            b = samples(b_records, workload, "per_layer", spec["name"])
            if not a or not b:
                continue
            a_med, b_med = statistics.median(a), statistics.median(b)
            change = f"{100 * (b_med - a_med) / a_med:+8.2f}%" if a_med \
                else "     n/a"
            lines.append(f"{workload:<14}  {spec['name']:<30}"
                         f"{a_med:>14.6g}{b_med:>14.6g} {spec['unit']:<6}"
                         f"{change}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    a_records, b_records = load(args[0]), load(args[1])
    if not a_records or not b_records:
        print("compare: no result records under", args[0] if not a_records
              else args[1])
        return 2
    print(f"{'workload':<14}{'metric':<20}{'A: median [q1, q3]':<44}"
          f"{'B: median [q1, q3]':<44}{'B vs A':>9}")
    print("\n".join(compare(a_records, b_records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
