"""Differential replay: fuzz the whole serving matrix with scenario workloads.

The engine's core promise is that every serving configuration —
topology x cache x lookup backend x runtime kind, at any register step — emits
**bit-identical decisions** to the per-packet scalar reference
(:func:`scalar_replay`: :mod:`repro.eval.oracle`, sharing no served code).
The lookup and cache axes are per runtime (:data:`RUNTIME_BACKENDS`,
:data:`RUNTIME_CACHES`): ``windowed`` serves ``index`` and ``tcam-pruned``
with any cache, ``two_stage`` serves ``index`` with no cache. The unit
tests assert it on one static mix; this harness turns the claim into a
*property* checked on adversarial, time-varying workloads:

1. :func:`run_differential` replays one materialized
   :class:`~repro.net.scenarios.ScenarioTrace` through every
   :class:`EngineCase` of the matrix and compares each decision stream to
   the scalar reference of its runtime kind, plus cross-config *stat
   consistency* (cache counters must agree across every cached config, and
   flush totals across every config with the same runtime and replica
   count).
2. :func:`fuzz_differential` drives that check from seeded scenario
   mutation — one fixed seed plus N derived random seeds, time-boxed —
   so CI explores a fresh slice of workload space on every run.
3. When a configuration diverges, :func:`shrink_failing_trace` delta-debugs
   the workload (drop whole flows, then ddmin packet chunks) down to a
   minimal failing trace, and the fuzzer writes it — trace bytes, labels,
   and divergence metadata — as a repro artifact.

The harness is *mutation-tested*: :func:`install_fault_backend` registers a
deliberately broken lookup backend (it flips a deterministic sliver of
decisions), and the test suite asserts the harness catches the fault and
shrinks it to a handful of packets.

Open-loop serves get the same treatment: :func:`verify_open_loop` replays
an :class:`OpenLoopReport`'s *claimed* admitted subsequence through the
per-packet scalar reference and demands bit-identity with the served
decision stream; the test suite tampers with a real report's shed set to
prove the verifier catches it.

CLI (the ``scenario-fuzz`` CI job)::

    PYTHONPATH=src python -m repro.eval.differential \
        --seeds 4 --budget-seconds 240 --out fuzz-artifacts

Exit status 0 means every examined (scenario, seed, case) triple matched;
1 means at least one divergence was found (artifacts written to ``--out``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.dataplane.decisions import DecisionBatch, PacketDecision
from repro.eval.oracle import ScalarOracle
from repro.net.scenarios import ScenarioTrace, build_scenario, scenario_names
from repro.net.traces import Trace, flow_ids, trace_to_bytes, write_trace
from repro.serving.engine import (EngineConfig, PegasusEngine,
                                  register_lookup_backend)
from repro.utils.rng import new_rng

DEFAULT_CAPACITY = 4096          # ample: cross-worker identity needs no eviction
RUNTIME_KINDS = ("windowed", "two_stage")
# The lookup backends and decision-cache modes each runtime kind serves (the
# engine rejects the rest); a kind's matrix pairs are their cross product.
RUNTIME_BACKENDS = {"windowed": ("index", "tcam-pruned"),
                    "two_stage": ("index",)}
RUNTIME_CACHES = {"windowed": ("off", "l1", "l1+l2"),
                  "two_stage": ("off",)}


# ---------------------------------------------------------------------------
# The engine matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineCase:
    """One point of the serving matrix."""

    runtime: str = "windowed"
    topology: str = "local"
    n_workers: int = 1
    lookup_backend: str = "index"
    decision_cache: str = "off"
    batch_size: int = 64

    @property
    def cached(self) -> bool:
        return self.decision_cache != "off"

    @property
    def label(self) -> str:
        return (f"{self.runtime}/{self.topology}{self.n_workers}/"
                f"{self.lookup_backend}/{self.decision_cache}/"
                f"b{self.batch_size}")

    def config(self, capacity: int = DEFAULT_CAPACITY) -> EngineConfig:
        return EngineConfig(
            runtime=self.runtime, feature_mode="stats",
            capacity=capacity, lookup_backend=self.lookup_backend,
            batch_size=self.batch_size, decision_cache=self.decision_cache,
            topology=self.topology, n_workers=self.n_workers)


def build_cases(runtimes: tuple[str, ...] = RUNTIME_KINDS,
                worker_counts: tuple[int, ...] = (1, 2),
                caches: tuple[str, ...] = ("off", "l1", "l1+l2"),
                include_parallel: bool = True) -> list[EngineCase]:
    """The full matrix: every topology x cache x backend x runtime point,
    each runtime over the (backend, cache) pairs it serves
    (:data:`RUNTIME_BACKENDS` x :data:`RUNTIME_CACHES`, within ``caches``).

    ``local`` runs every pair (one in-process replica — cheap). ``sharded``
    and (optionally) ``parallel`` run at every requested worker count,
    rotating through the pairs so every pair still appears in a
    multi-replica topology at least once per runtime kind without exploding
    the process-forking corner of the matrix; a kind with a single pair
    serves it on both.
    """
    cases = []
    for kind in runtimes:
        combos = [(backend, cached) for backend, cached in itertools.product(
            RUNTIME_BACKENDS[kind], RUNTIME_CACHES[kind]) if cached in caches]
        for backend, cached in combos:
            cases.append(EngineCase(kind, "local", 1, backend, cached))
        # Rotate (backend, cache) pairs across the scaled-out topologies:
        # offset by one per worker count so sharded and parallel between
        # them cover every pair at every requested scale over the rotation.
        for i, n in enumerate(worker_counts):
            for j in range(0, len(combos), 2):
                backend, cached = combos[(i + j) % len(combos)]
                cases.append(EngineCase(kind, "sharded", n, backend, cached))
            if include_parallel:
                for j in range(1, max(len(combos), 2), 2):
                    backend, cached = combos[(i + j) % len(combos)]
                    cases.append(EngineCase(kind, "parallel", n, backend,
                                            cached))
    return cases


def quick_cases(runtimes: tuple[str, ...] = RUNTIME_KINDS) -> list[EngineCase]:
    """A reduced matrix for time-boxed runs: every axis still varies, but
    not in full cross product (parallel only once per runtime kind). A kind
    without TCAM serving or a cache gets ``index`` / ``off`` instead, and
    the points that then coincide run once."""
    cases = []
    for kind in runtimes:
        tcam = RUNTIME_BACKENDS[kind][-1]    # "index" where there is none
        l1, l2 = (mode if mode in RUNTIME_CACHES[kind] else "off"
                  for mode in ("l1", "l1+l2"))
        cases += dict.fromkeys([
            EngineCase(kind, "local", 1, "index", "off", 32),
            EngineCase(kind, "local", 1, tcam, l1, 64),
            EngineCase(kind, "local", 1, tcam, l2, 64),
            EngineCase(kind, "sharded", 2, "index", l2, 64),
            EngineCase(kind, "sharded", 2, tcam, "off", 96),
            EngineCase(kind, "parallel", 2, "index", l2, 64),
        ])
    return cases


# ---------------------------------------------------------------------------
# Sources + scalar references
# ---------------------------------------------------------------------------

def build_reference_model(seed: int = 0, input_dim: int = 16,
                          n_classes: int = 3):
    """A small deterministic compiled model (windowed-runtime source).

    Matches the test fixtures: an untrained seeded MLP compiled over a
    uniform calibration set — decisions are arbitrary but fully
    deterministic, which is all differential replay needs.
    """
    from repro import nn
    from repro.core import CompilerConfig, PegasusCompiler

    rng = np.random.default_rng(seed)
    model = nn.Sequential(nn.Linear(input_dim, 8, rng=seed),
                          nn.ReLU(), nn.Linear(8, n_classes, rng=seed + 1))
    for p in model.parameters():
        p.data *= 0.1
    model.eval_mode()
    x = np.floor(rng.uniform(0, 255, size=(400, input_dim))).astype(np.int64)
    return PegasusCompiler(CompilerConfig(refine=False)) \
        .compile_sequential(model, x).compiled


def build_two_stage_spec(seed: int = 0, n_classes: int = 3,
                         idx_bits: int = 4, raw_bytes: int = 60,
                         window: int = 8) -> dict:
    """A small deterministic two-stage runtime spec (CNN-L deployment shape)."""
    from repro.core.fuzzy import FuzzyTree

    rng = np.random.default_rng(seed)
    tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, raw_bytes)),
                         n_leaves=1 << idx_bits)
    slot_values = [rng.integers(-20, 21, size=(1 << idx_bits, n_classes))
                   for _ in range(window)]
    return {"extractor_tree": tree, "slot_values": slot_values,
            "n_classes": n_classes, "idx_bits": idx_bits,
            "raw_bytes": raw_bytes}


def default_sources(seed: int = 0) -> dict:
    """One deterministic source per runtime kind."""
    return {"windowed": build_reference_model(seed),
            "two_stage": build_two_stage_spec(seed)}


def scalar_replay(replica, trace: Trace, labels: np.ndarray,
                  positions: np.ndarray | None = None) -> list[PacketDecision]:
    """Replay ``trace`` one packet at a time through a cold
    :class:`~repro.eval.oracle.ScalarOracle` of ``replica``'s configuration
    (see :meth:`~repro.eval.oracle.ScalarOracle.replay`); ``replica`` itself,
    its registers and its cache are not touched."""
    return ScalarOracle.of(replica).replay(trace, labels, positions)


def scalar_reference(source, runtime_kind: str, trace: Trace,
                     labels: np.ndarray, capacity: int = DEFAULT_CAPACITY,
                     feature_mode: str = "stats",
                     positions: np.ndarray | None = None) -> list:
    """Per-packet ground-truth replay of a trace (no batching, no cache).

    Builds one replica of ``runtime_kind`` from ``source`` through the
    engine's own replica factory and replays its configuration with
    :func:`scalar_replay` — the reference every matrix point must reproduce
    bit-for-bit.
    """
    config = EngineConfig(runtime=runtime_kind, feature_mode=feature_mode,
                          capacity=capacity)
    replica = PegasusEngine(source=source, config=config)._replica_factory()
    return scalar_replay(replica, trace, labels, positions)


# ---------------------------------------------------------------------------
# Differential run
# ---------------------------------------------------------------------------

@dataclass
class Divergence:
    """The first point where one configuration's decisions left the reference."""

    case: str
    index: int                   # position in the reference decision stream
    expected: object | None      # PacketDecision (None: stream ended early)
    got: object | None

    def describe(self) -> str:
        return (f"{self.case}: first divergence at decision #{self.index}: "
                f"expected {self.expected}, got {self.got}")


def first_divergence(reference, got, case: str) -> Divergence | None:
    """Locate the first mismatched decision (None when streams are equal).

    Either stream may be a :class:`DecisionBatch` or a list of
    :class:`~repro.dataplane.decisions.PacketDecision` s; the comparison
    runs on columns.
    """
    want = DecisionBatch.from_decisions(reference)
    have = DecisionBatch.from_decisions(got)
    n = min(len(want), len(have))
    differs = np.zeros(n, dtype=bool)
    for name in DIGEST_ROW.names:
        differs |= getattr(want, name)[:n] != getattr(have, name)[:n]
    hits = np.flatnonzero(differs)
    if hits.size:
        i = int(hits[0])
    elif len(want) != len(have):
        i = n
    else:
        return None
    return Divergence(case, i, want[i] if i < len(want) else None,
                      have[i] if i < len(have) else None)


@dataclass
class DifferentialReport:
    """Everything one differential replay established."""

    scenario: str
    seed: int | None
    n_packets: int
    rows: list[dict] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    stat_notes: list[str] = field(default_factory=list)

    @property
    def decisions_match(self) -> bool:
        return not self.divergences

    @property
    def stats_consistent(self) -> bool:
        return not self.stat_notes

    @property
    def ok(self) -> bool:
        return self.decisions_match and self.stats_consistent

    def summary(self) -> dict:
        return {
            "scenario": self.scenario, "seed": self.seed,
            "n_packets": self.n_packets, "cases": len(self.rows),
            "decisions_match": self.decisions_match,
            "stats_consistent": self.stats_consistent,
            "divergences": [d.describe() for d in self.divergences],
            "stat_notes": list(self.stat_notes),
        }


def _check_stats(rows: list[dict], notes: list[str]) -> None:
    """Cross-config stat invariants (decisions aside).

    Cache rows are ``(exact_hits, approx_hits, misses, evictions)``:

    - every cached config performs exactly one cache lookup per decision
      (``exact + approx + misses == n_decisions``);
    - with no evictions anywhere (capacity ample), every cached config of a
      runtime kind sees the *same* exact hits — the L1 is keyed by (flow,
      window), and neither topology, sharding, nor the L2 may change what a
      flow's windows are or which L1 probes hit;
    - within one (kind, cache mode, worker count) group, the *full*
      counter tuple is identical across topologies, lookup backends and
      batch sizes — every replica owns its cache, backends never touch it,
      and the batched two-pass protocol replays the scalar op sequence
      exactly (approximate-hit patterns depend on how flows split across
      replicas, so groups never span different worker counts);
    - every replica of every topology steps registers in
      ``REGISTER_STEP_ROWS`` spans and the shard split is one hash, so
      configs with the same runtime kind and replica count (``local``,
      ``sharded`` and ``parallel`` alike) cut the same spans, hence equal
      flush totals.
    """
    cached = [r for r in rows if r["cache"] is not None]
    for r in cached:
        hits, approx, misses, _ = r["cache"]
        if hits + approx + misses != r["n_decisions"]:
            notes.append(f"{r['case']}: {hits}+{approx}+{misses} cache "
                         f"lookups for {r['n_decisions']} decisions")
    for kind in {r["runtime"] for r in cached}:
        group = [r for r in cached if r["runtime"] == kind]
        if any(r["cache"][3] for r in group):
            continue            # evictions: per-replica capacity bound, skip
        exact = {r["cache"][0] for r in group}
        if len(exact) > 1:
            notes.append(f"{kind}: cached configs disagree on exact hits: "
                         f"{ {r['case']: r['cache'] for r in group} }")
    by_layout: dict[tuple, list[dict]] = {}
    for r in cached:
        layout = (r["runtime"], r["cache_mode"], r["n_workers"])
        by_layout.setdefault(layout, []).append(r)
    for layout, group in by_layout.items():
        counters = {r["cache"] for r in group}
        if len(counters) > 1:
            notes.append(f"cache counters diverge across {layout}: "
                         f"{ {r['case']: r['cache'] for r in group} }")
    by_shape: dict[tuple, dict[str, int]] = {}
    for r in rows:
        shape = (r["runtime"], r["n_workers"])
        by_shape.setdefault(shape, {})[r["case"]] = r["flushes"]
    for shape, members in by_shape.items():
        if len(set(members.values())) > 1:
            notes.append(f"flush totals diverge across {shape}: {members}")


def run_differential(workload: ScenarioTrace, sources: dict | None = None,
                     cases: list[EngineCase] | None = None,
                     capacity: int = DEFAULT_CAPACITY,
                     check_stats: bool = True) -> DifferentialReport:
    """Replay one workload through the matrix; compare against references."""
    sources = default_sources() if sources is None else sources
    cases = build_cases() if cases is None else cases
    report = DifferentialReport(scenario=workload.scenario,
                                seed=workload.seed,
                                n_packets=workload.n_packets)
    references = {
        kind: scalar_reference(sources[kind], kind, workload.trace,
                               workload.labels, capacity=capacity)
        for kind in {c.runtime for c in cases}
    }
    for case in cases:
        config = case.config(capacity=capacity)
        with PegasusEngine(source=sources[case.runtime], config=config) as eng:
            serve = eng.serve(workload.trace, labels=workload.labels)
        div = first_divergence(references[case.runtime], serve.decisions,
                               case.label)
        if div is not None:
            report.divergences.append(div)
        cs = serve.cache_stats
        report.rows.append({
            "case": case.label, "runtime": case.runtime,
            "topology": case.topology, "n_workers": case.n_workers,
            "batch_size": case.batch_size,
            "cache_mode": case.decision_cache,
            "n_decisions": serve.n_decisions,
            "match": div is None,
            "cache": ((cs.hits, cs.approx_hits, cs.misses, cs.evictions)
                      if case.cached else None),
            "flushes": serve.flush_stats.total,
            "wall_seconds": serve.wall_seconds,
        })
    if check_stats:
        _check_stats(report.rows, report.stat_notes)
    return report


# ---------------------------------------------------------------------------
# Open-loop verification
# ---------------------------------------------------------------------------

def verify_open_loop(workload: ScenarioTrace, report, source) -> list[str]:
    """Check an :class:`OpenLoopReport`'s claimed served subset, bit-exactly.

    Three properties, returned as a list of human-readable notes (empty
    means the report is sound):

    1. the claimed ``shed_seq`` / ``admitted_seq`` partition the offered
       packets (disjoint, complete);
    2. the claimed admitted count matches the number of packets the engine
       actually served;
    3. a cold per-packet scalar replay of *exactly the claimed admitted
       subsequence* (same runtime kind / feature mode / capacity as the
       report's config, cache off) is bit-identical to the report's
       decision stream — so a serve cannot silently drop packets, invent
       decisions, or misreport which packets it shed.
    """
    notes: list[str] = []
    n = workload.n_packets
    admitted = np.asarray(report.admitted_seq, dtype=np.int64)
    shed = np.asarray(report.shed_seq, dtype=np.int64)
    both = np.concatenate([admitted, shed])
    if (both.size != n or np.unique(both).size != n
            or (both < 0).any() or (both >= n).any()):
        notes.append(
            f"openloop/{report.admission}: claimed admitted+shed sets do "
            f"not partition the {n} offered packets "
            f"({admitted.size} admitted + {shed.size} shed)")
        return notes          # index sets unusable; replay would be garbage
    if admitted.size != report.serving.n_packets:
        notes.append(
            f"openloop/{report.admission}: claims {admitted.size} admitted "
            f"but the engine served {report.serving.n_packets} packets")
    config = report.config
    sub, labels = workload.subset(admitted)
    reference = scalar_reference(source, config.runtime, sub, labels,
                                 capacity=config.capacity,
                                 feature_mode=config.feature_mode,
                                 positions=admitted)
    div = first_divergence(reference, report.serving.decisions,
                           f"openloop/{report.admission}")
    if div is not None:
        notes.append(div.describe())
    return notes


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def make_failing_predicate(case: EngineCase, source,
                           capacity: int = DEFAULT_CAPACITY):
    """``failing(trace, labels) -> bool`` for one matrix case.

    Rebuilds the reference and the candidate engine cold on every call, so
    the predicate is a pure function of the (sub)trace — exactly what
    delta-debugging requires.
    """
    def failing(trace: Trace, labels: np.ndarray) -> bool:
        if not len(trace):
            return False
        reference = scalar_reference(source, case.runtime, trace, labels,
                                     capacity=capacity)
        config = case.config(capacity=capacity)
        with PegasusEngine(source=source, config=config) as eng:
            got = eng.serve(trace, labels=labels).decisions
        return first_divergence(reference, got, case.label) is not None
    return failing


def shrink_failing_trace(trace: Trace, labels: np.ndarray, failing,
                         max_evals: int = 200) -> tuple[Trace, np.ndarray]:
    """Delta-debug a failing trace down to a (locally) minimal one.

    Two passes under one evaluation budget: greedily drop whole flows
    (packets sharing a canonical 5-tuple), then ddmin over packet chunks at
    halving granularity. Every candidate is re-replayed from cold state, so
    the result is guaranteed to still satisfy ``failing``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    flow_of = flow_ids(trace.key_words)
    evals = 0

    def still_fails(keep: list[int]) -> bool:
        nonlocal evals
        evals += 1
        return failing(trace.take(keep), labels[keep])

    keep = list(range(len(trace)))

    # Pass 1: drop whole flows, largest first (fast, high-yield).
    changed = True
    while changed and evals < max_evals:
        changed = False
        flows: dict = {}
        for pos, i in enumerate(keep):
            flows.setdefault(flow_of[i], []).append(pos)
        if len(flows) <= 1:
            break
        for key, members in sorted(flows.items(),
                                   key=lambda kv: -len(kv[1])):
            if evals >= max_evals:
                break
            candidate = [i for pos, i in enumerate(keep)
                         if pos not in set(members)]
            if candidate and still_fails(candidate):
                keep = candidate
                changed = True
                break

    # Pass 2: ddmin over packet chunks.
    chunk = max(len(keep) // 2, 1)
    while chunk >= 1 and evals < max_evals:
        reduced = False
        start = 0
        while start < len(keep) and evals < max_evals:
            candidate = keep[:start] + keep[start + chunk:]
            if candidate and still_fails(candidate):
                keep = candidate
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            chunk = max(chunk // 2, 1)

    return trace.take(keep), labels[keep]


# ---------------------------------------------------------------------------
# Fault injection (mutation-testing the harness itself)
# ---------------------------------------------------------------------------

class _BitFlipFault:
    """Picklable ``apply`` for :func:`install_fault_backend`.

    Flips the lowest predicted-class bit of every decision whose
    millisecond-quantized timestamp lands on ``offset (mod period)``.
    A module-level class (not a closure) so registry entries stay
    pickle-safe and would survive spawn-based workers.
    """

    def __init__(self, period: int, offset: int):
        self.period = period
        self.offset = offset

    def _corrupt(self, decisions: DecisionBatch) -> DecisionBatch:
        ms = np.rint(decisions.ts * 1000.0).astype(np.int64)
        predicted = decisions.predicted
        return replace(decisions, predicted=np.where(
            ms % self.period == self.offset, predicted ^ 1, predicted))

    def __call__(self, replica):
        replica.set_lookup_backend("index")
        orig_trace = replica.process_trace
        orig_columns = replica.process_columns
        replica.process_trace = \
            lambda *a, **k: self._corrupt(orig_trace(*a, **k))
        replica.process_columns = \
            lambda *a, **k: self._corrupt(orig_columns(*a, **k))


def install_fault_backend(name: str = "index+fault", period: int = 7,
                          offset: int = 3) -> str:
    """Register a deliberately broken lookup backend under ``name``.

    The backend serves the normal index path but flips the lowest bit of
    the predicted class for every decision whose (deterministic, millisecond
    -quantized) timestamp lands on ``offset (mod period)`` — a rare,
    topology-independent fault. Differential replay must catch it and the
    shrinker must reduce it to a handful of packets; the tests assert both.
    Registration is idempotent (re-registering overwrites).
    """
    register_lookup_backend(name, apply=_BitFlipFault(period, offset),
                            overwrite=True)
    return name


class _L2BitFlipFault:
    """Picklable ``apply`` for :func:`install_l2_fault_backend`.

    Wraps a replica's two-level cache so every ``period``-th verified L2
    hit returns a copy of the entry with its decision bit-flipped. The
    per-replica wrapper is still a closure (it captures that replica's
    cache), but the registry entry itself is this module-level instance.
    """

    def __init__(self, period: int):
        self.period = period

    def __call__(self, replica):
        from repro.serving.cache import PENDING, _DEC

        replica.set_lookup_backend("index")
        cache = getattr(replica, "decision_cache", None)
        if not getattr(cache, "two_level", False):
            return
        orig = cache.approx_get
        hits = itertools.count(1)
        period = self.period

        def corrupt(feats):
            entry = orig(feats)
            if entry is None or entry[_DEC] is PENDING:
                return entry
            if next(hits) % period == 0:
                entry = list(entry)
                entry[_DEC] = int(entry[_DEC]) ^ 1
            return entry

        cache.approx_get = corrupt


def install_l2_fault_backend(name: str = "index+l2fault",
                             period: int = 5) -> str:
    """Register a backend whose replicas serve WRONG approximate hits.

    The lookup path itself is the normal index path; the fault wraps the
    replica's two-level decision cache so every ``period``-th verified L2
    hit returns a copy of the entry with its decision bit-flipped — the
    exact failure an unsound quantization certificate would cause. The
    differential matrix must flag the first corrupted decision and the
    shrinker must reduce the trace, proving the bit-identity wall actually
    guards the approximate path (mutation-tested). Replicas without a
    two-level cache are left untouched, so the fault fires only where an
    approximate hit can. Registration is idempotent.
    """
    register_lookup_backend(name, apply=_L2BitFlipFault(period),
                            overwrite=True)
    return name


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

@dataclass
class FuzzFinding:
    """One shrunk divergence, plus where its repro artifact landed."""

    scenario: str
    generate_seed: int
    case: str
    original_packets: int
    shrunk_packets: int
    divergence: str
    trace_path: str | None = None
    meta_path: str | None = None


@dataclass
class FuzzReport:
    """What one fuzzing session examined and what it found."""

    trials: list[dict] = field(default_factory=list)
    findings: list[FuzzFinding] = field(default_factory=list)
    seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> dict:
        return {
            "trials": len(self.trials),
            "ok": self.ok,
            "seconds": self.seconds,
            "budget_exhausted": self.budget_exhausted,
            "findings": [vars(f) for f in self.findings],
        }


#: One decision as the golden digest hashes it: three int64 fields and the
#: float64 timestamp, packed back to back (32 bytes, native byte order).
DIGEST_ROW = np.dtype([("seq", np.int64), ("flow_label", np.int64),
                       ("predicted", np.int64), ("ts", np.float64)])


def decision_digest(decisions) -> str:
    """Order-sensitive SHA-256 over a decision stream (the golden digest):
    one hash of the packed :data:`DIGEST_ROW` records of every decision."""
    batch = DecisionBatch.from_decisions(decisions)
    rows = np.empty(len(batch), dtype=DIGEST_ROW)
    for name in DIGEST_ROW.names:
        rows[name] = getattr(batch, name)
    return hashlib.sha256(rows.tobytes()).hexdigest()


def trace_digest(trace: Trace) -> str:
    """SHA-256 of the trace's canonical SPCAP1 byte form."""
    return hashlib.sha256(trace_to_bytes(trace)).hexdigest()


def labels_digest(labels: np.ndarray) -> str:
    """SHA-256 of a per-packet label column (int64 little-endian bytes)."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()


def replay_digests(workload: ScenarioTrace,
                   sources: dict | None = None) -> dict[str, dict]:
    """Per-runtime-kind decision digests of the local reference replay.

    The digest the golden-replay fixtures pin: one ``local/index/nocache``
    engine per runtime kind (every other matrix point must agree with it
    bit-for-bit anyway, so one digest pins them all).
    """
    sources = default_sources() if sources is None else sources
    out: dict[str, dict] = {}
    for kind in RUNTIME_KINDS:
        case = EngineCase(runtime=kind)
        with PegasusEngine(source=sources[kind],
                           config=case.config()) as eng:
            decisions = eng.serve(workload.trace,
                                  labels=workload.labels).decisions
        out[kind] = {"digest": decision_digest(decisions),
                     "n_decisions": len(decisions)}
    return out


def two_level_replay(workload: ScenarioTrace,
                     sources: dict | None = None) -> dict[str, dict]:
    """Digest + cache counters of the maximal-fast-path replay.

    Replays every runtime kind that has a two-level decision cache (only
    ``windowed``) with it and the pruned TCAM kernel (``l1+l2`` /
    ``tcam-pruned``) — where an unsound approximate hit or a dropped
    candidate row would surface. The golden fixtures pin that its digest
    equals the plain reference digest, and (for the counter golden) the exact
    ``(exact_hits, approx_hits, misses, evictions)`` stream.
    """
    sources = default_sources() if sources is None else sources
    out: dict[str, dict] = {}
    for kind in RUNTIME_KINDS:
        if "l1+l2" not in RUNTIME_CACHES[kind]:
            continue
        case = EngineCase(runtime=kind,
                          lookup_backend=RUNTIME_BACKENDS[kind][-1],
                          decision_cache="l1+l2")
        with PegasusEngine(source=sources[kind],
                           config=case.config()) as eng:
            serve = eng.serve(workload.trace, labels=workload.labels)
        cs = serve.cache_stats
        out[kind] = {"digest": decision_digest(serve.decisions),
                     "n_decisions": serve.n_decisions,
                     "counters": {"exact_hits": cs.exact_hits,
                                  "approx_hits": cs.approx_hits,
                                  "misses": cs.misses,
                                  "evictions": cs.evictions}}
    return out


def _write_finding(out_dir: Path, n: int, workload_name: str, seed: int,
                   case: EngineCase | None, trace: Trace, labels: np.ndarray,
                   divergence: str, original_packets: int) -> tuple[str, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"finding{n}_{workload_name}_s{seed}"
    trace_path = out_dir / f"{stem}.spcap"
    meta_path = out_dir / f"{stem}.json"
    write_trace(trace, trace_path)
    meta_path.write_text(json.dumps({
        "scenario": workload_name,
        "generate_seed": seed,
        # None: a stats-level finding (no single diverging case) — the
        # divergence field names the inconsistent cases instead.
        "case": vars(case) if case is not None else None,
        "original_packets": original_packets,
        "shrunk_packets": len(trace),
        "labels": np.asarray(labels, dtype=np.int64).tolist(),
        "trace_sha256": trace_digest(trace),
        "divergence": divergence,
        "repro": "read the .spcap with repro.net.read_trace, replay with "
                 "repro.eval.differential.run_differential on the case above",
    }, indent=2) + "\n")
    return str(trace_path), str(meta_path)


def fuzz_differential(n_seeds: int = 4, budget_seconds: float = 120.0,
                      base_seed: int = 0,
                      scenarios: tuple[str, ...] | None = None,
                      cases: list[EngineCase] | None = None,
                      sources: dict | None = None,
                      flows_scale: float = 0.4,
                      out_dir: str | Path | None = None,
                      shrink: bool = True,
                      shrink_evals: int = 120,
                      progress=None) -> FuzzReport:
    """Seeded scenario mutation against the matrix, time-boxed.

    Trial 0 always replays ``base_seed`` itself (the fixed regression
    point); trials 1..n_seeds derive fresh generation seeds and jittered
    workload scales from it. Scenario families rotate round-robin. On a
    divergence the failing case is shrunk (cold-state delta debugging) and
    the minimal trace + metadata written to ``out_dir``.
    """
    rng = new_rng(base_seed)
    names = tuple(scenarios) if scenarios else scenario_names()
    sources = default_sources() if sources is None else sources
    cases = quick_cases() if cases is None else cases
    report = FuzzReport()
    started = time.perf_counter()
    for trial in range(n_seeds + 1):
        if time.perf_counter() - started > budget_seconds:
            report.budget_exhausted = True
            break
        name = names[trial % len(names)]
        if trial == 0:
            seed, scale = base_seed, flows_scale
        else:
            seed = int(rng.integers(0, 2**31 - 1))
            scale = flows_scale * float(rng.uniform(0.6, 1.4))
        workload = build_scenario(name).generate(seed=seed, flows_scale=scale)
        diff = run_differential(workload, sources=sources, cases=cases)
        trial_row = {"scenario": name, "seed": seed,
                     "n_packets": workload.n_packets, "ok": diff.ok}
        report.trials.append(trial_row)
        if progress is not None:
            progress(trial_row)
        if diff.ok:
            continue
        detail = (diff.divergences[0].describe() if diff.divergences
                  else "; ".join(diff.stat_notes))
        finding = FuzzFinding(
            scenario=name, generate_seed=seed,
            case=(diff.divergences[0].case if diff.divergences
                  else "<stats>"),
            original_packets=workload.n_packets,
            shrunk_packets=workload.n_packets,
            divergence=detail)
        if shrink and diff.divergences:
            case = next(c for c in cases
                        if c.label == diff.divergences[0].case)
            failing = make_failing_predicate(case, sources[case.runtime])
            shrunk, shrunk_labels = shrink_failing_trace(
                workload.trace, workload.labels, failing,
                max_evals=shrink_evals)
            finding.shrunk_packets = len(shrunk)
            if out_dir is not None:
                finding.trace_path, finding.meta_path = _write_finding(
                    Path(out_dir), len(report.findings), name, seed, case,
                    shrunk, shrunk_labels, detail, workload.n_packets)
        elif out_dir is not None:
            finding.trace_path, finding.meta_path = _write_finding(
                Path(out_dir), len(report.findings), name, seed,
                None, workload.trace, workload.labels, detail,
                workload.n_packets)
        report.findings.append(finding)
    report.seconds = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Differential scenario fuzzing of the serving matrix")
    parser.add_argument("--seeds", type=int, default=4,
                        help="random seeds on top of the fixed base seed")
    parser.add_argument("--budget-seconds", type=float, default=240.0)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--flows-scale", type=float, default=0.4)
    parser.add_argument("--scenarios", nargs="*", default=None,
                        help="scenario families (default: all registered)")
    parser.add_argument("--full-matrix", action="store_true",
                        help="run build_cases() instead of quick_cases()")
    parser.add_argument("--out", type=Path, default=Path("fuzz-artifacts"),
                        help="directory for shrunk repro artifacts")
    args = parser.parse_args(argv)

    cases = build_cases() if args.full_matrix else quick_cases()
    print(f"scenario-fuzz: {len(cases)} matrix cases, "
          f"1+{args.seeds} seeds, budget {args.budget_seconds:.0f}s")
    report = fuzz_differential(
        n_seeds=args.seeds, budget_seconds=args.budget_seconds,
        base_seed=args.base_seed,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        cases=cases, flows_scale=args.flows_scale, out_dir=args.out,
        progress=lambda row: print(
            f"  {row['scenario']:<15s} seed={row['seed']:<11d} "
            f"packets={row['n_packets']:<6d} "
            f"{'ok' if row['ok'] else 'DIVERGED'}", flush=True))
    print(f"{len(report.trials)} trials in {report.seconds:.1f}s"
          + (" (budget exhausted)" if report.budget_exhausted else ""))
    if report.ok:
        print("all decision streams bit-identical; stats consistent")
        return 0
    for f in report.findings:
        print(f"FINDING: {f.scenario} seed={f.generate_seed} case={f.case}: "
              f"{f.divergence}")
        print(f"  shrunk {f.original_packets} -> {f.shrunk_packets} packets"
              + (f" ({f.trace_path})" if f.trace_path else ""))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
