"""Regenerate the golden-replay fixtures under ``tests/fixtures/``.

The goldens pin four tiny seeded scenario workloads byte-for-byte — the
SPCAP1 trace files plus SHA-256 digests of the traces, the label columns,
and the reference decision streams of both runtime kinds. The fourth
golden additionally pins the windowed runtime's two-level decision cache
``(exact_hits, approx_hits, misses, evictions)`` counters under the
maximal fast path (``l1+l2`` cache + ``tcam-pruned`` lookups). The
``golden``-marked tests (``tests/test_golden_replay.py``) regenerate each
workload and fail on any drift in the generators *or* the serving stack.

Decision digests are guarded: a refresh ASSERTS that the fast-path replay
(two-level cache + pruned TCAM) reproduces the plain reference digest, and
— unless ``--allow-drift`` is passed — that every digest a previous
manifest already pinned is unchanged. A refresh can therefore add fixtures
or counters, but can never silently ratify a decision change.

Run this only when a change is **meant** to move the goldens (a generator
change, a new reference model), then commit the refreshed fixtures together
with the change::

    PYTHONPATH=src python scripts/refresh_goldens.py [--allow-drift]

The fixture set is defined here, in one place; the test reads the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.differential import (labels_digest, replay_digests,  # noqa: E402
                                     trace_digest, two_level_replay)
from repro.net import build_scenario, write_trace  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
MANIFEST = FIXTURES / "scenario_goldens.json"

# (scenario family, generation seed, flows_scale, pin cache counters):
# tiny but phase-complete. The counter golden (microburst) pins the exact
# two-level cache counter stream on top of the decision digests.
GOLDEN_SET = [
    ("diurnal", 0, 0.15, False),
    ("attack_flood", 1, 0.15, False),
    ("heavy_hitters", 2, 0.2, False),
    ("microburst", 3, 0.15, True),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allow-drift", action="store_true",
                        help="permit previously pinned digests to change "
                             "(for intentional generator/model changes)")
    args = parser.parse_args(argv)

    previous: dict[str, dict] = {}
    if MANIFEST.exists():
        previous = json.loads(MANIFEST.read_text()).get("goldens", {})

    FIXTURES.mkdir(parents=True, exist_ok=True)
    goldens: dict[str, dict] = {}
    for name, seed, scale, pin_counters in GOLDEN_SET:
        workload = build_scenario(name).generate(seed=seed, flows_scale=scale)
        decisions = replay_digests(workload)
        fast = two_level_replay(workload)
        for kind in fast:
            assert fast[kind]["digest"] == decisions[kind]["digest"], (
                f"{name}-s{seed}/{kind}: two-level cache + pruned TCAM "
                f"changed the decision stream — refusing to refresh")
        key = f"{name}-s{seed}"
        old = previous.get(key)
        if old is not None and not args.allow_drift:
            drifted = [kind for kind, ref in decisions.items()
                       if old["decisions"].get(kind, ref)["digest"]
                       != ref["digest"]]
            assert not drifted, (
                f"{key}: decision digests drifted for {drifted} — rerun "
                "with --allow-drift only if the change is intentional")
        trace_file = f"scenario_{name}_s{seed}.spcap"
        write_trace(workload.trace, FIXTURES / trace_file)
        goldens[key] = {
            "scenario": name,
            "seed": seed,
            "flows_scale": scale,
            "trace": trace_file,
            "n_packets": workload.n_packets,
            "phases": [s.name for s in workload.phases],
            "trace_sha256": trace_digest(workload.trace),
            "labels_sha256": labels_digest(workload.labels),
            "decisions": decisions,
        }
        if pin_counters:
            goldens[key]["cache_counters"] = {
                kind: fast[kind]["counters"] for kind in fast}
        print(f"{name:>14s} seed={seed} packets={workload.n_packets:5d} "
              f"-> {trace_file}")
    MANIFEST.write_text(json.dumps({
        "_note": [
            "Golden-replay regression fixtures. Regenerate intentionally with",
            "PYTHONPATH=src python scripts/refresh_goldens.py and commit the",
            "result; tests/test_golden_replay.py fails on any unintended",
            "drift in the scenario generators or the serving stack.",
            "Decision digests use repro.eval.differential.default_sources(0);",
            "cache_counters pin the l1+l2 / tcam-pruned fast path.",
        ],
        "goldens": goldens,
    }, indent=2, sort_keys=True) + "\n")
    print(f"manifest -> {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
