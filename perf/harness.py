"""Measure one workload: set-up, correctness oracle, timed and traced serves.

Everything goes through the public ``PegasusEngine`` API. The clock covers
``start() -> serve() -> close()`` of a fresh engine per repeat; model
training, workload generation, the correctness oracle and every comparison
of decisions run outside it.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.eval.differential import decision_digest, scalar_reference
from repro.eval.runner import prepare_dataset
from repro.models import build_model
from repro.net.traces import Trace
from repro.serving import EngineConfig, PegasusEngine

from perf.hostprobe import HostProbe
from perf.tracer import (NOT_EXERCISED, Tracer, open_loop_metrics,
                         per_layer_metrics)
from perf.workloads import BASE_CONFIG, DATASET, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

FLOWS_PER_CLASS = 60
MODEL_SEED = 0
SETUP_BUILDS = 5          # cold builds behind the setup_s median
MIN_REPEATS = 3           # timed serves that run however short --seconds is
WARMUP_PACKETS = 1000
# Packets of each trace replayed through the per-packet scalar oracle
# (~7 ms a decision, so the prefix is what a 20 s run can afford).
ORACLE_PREFIX = 400
ORACLE_PREFIX_QUICK = 120


def train_model():
    """MLP-B on peerrush, trained once per process; never inside a metric."""
    train_views, _val, _test, n_classes = prepare_dataset(
        DATASET, FLOWS_PER_CLASS, MODEL_SEED)
    model = build_model("MLP-B", n_classes, MODEL_SEED)
    model.train(train_views)
    return model, train_views


def measure_setup(model, train_views, config: EngineConfig, builds: int,
                  probe: HostProbe) -> list[dict]:
    """``builds`` cold builds: compile the model to tables, build the engine,
    start it (TCAM table compile, worker fork, ring creation). Each yields
    its seconds at reference host speed and the host's slowness around it.
    Leaves ``model.compiled`` holding the last compile."""
    samples = []
    probe()
    for _ in range(builds):
        gc.collect()
        started = time.perf_counter()
        model.compile_dataplane(train_views)
        engine = PegasusEngine.from_compiled(model.compiled, config)
        engine.start()
        seconds = time.perf_counter() - started
        engine.close()
        host = probe.bracket()
        samples.append({"setup_s": seconds / host, "host": host})
    return samples


# -- correctness --------------------------------------------------------------

def _rows(decisions, seq_map=None) -> list[tuple]:
    if seq_map is None:
        return [(d.seq, d.flow_label, d.predicted, d.ts) for d in decisions]
    return [(int(seq_map[d.seq]), d.flow_label, d.predicted, d.ts)
            for d in decisions]


def count_failed(expected: list[tuple], got: list[tuple]) -> int:
    """Decisions missing from ``got``, differing from ``expected``, or extra.

    Rows are ``(seq, flow_label, predicted, ts)``; at most one decision per
    packet, so ``seq`` is the key.
    """
    if expected == got:
        return 0
    want = {row[0]: row for row in expected}
    have = {row[0]: row for row in got}
    bad = sum(1 for seq, row in want.items() if have.get(seq) != row)
    return bad + sum(1 for seq in have if seq not in want)


def closed_loop_reference(compiled, trace: Trace, labels,
                          capacity: int) -> list:
    """Decisions of the plain deployment (local, index, no cache)."""
    config = replace(BASE_CONFIG, capacity=capacity)
    with PegasusEngine.from_compiled(compiled, config) as engine:
        return engine.serve(trace, labels=labels).decisions


class Checker:
    """The correctness oracle of one workload, kept outside the clock.

    The reference is a plain closed-loop replay of the same packets; every
    variant must reproduce it bit for bit. The reference itself is checked
    against the per-packet scalar oracle on a prefix of the trace (batch cuts
    never change decisions, so a prefix replay is exact). An open-loop serve
    is checked against a closed-loop replay of exactly the packets it
    admitted, and its counts must add up.
    """

    def __init__(self, compiled, workload: Workload, trace, prefix: int):
        self.compiled = compiled
        self.trace = trace
        self.open_loop = workload.mode == "open"
        self.capacity = workload.config.capacity
        self.attempted = 0
        self.failed = 0
        prefix = min(prefix, trace.n_packets)
        sub, labels = trace.subset(np.arange(prefix))
        if self.open_loop:
            reference = closed_loop_reference(compiled, sub, labels,
                                              self.capacity)
            self.expected = None
            self.reference_digest = None
        else:
            reference = closed_loop_reference(compiled, trace.trace,
                                              trace.labels, self.capacity)
            self.expected = _rows(reference)
            self.reference_digest = decision_digest(reference)
        oracle = scalar_reference(compiled, "windowed", sub, labels,
                                  capacity=self.capacity)
        self._tally(_rows(oracle),
                    [row for row in _rows(reference) if row[0] < prefix])

    def _tally(self, expected: list[tuple], got: list[tuple]) -> None:
        self.attempted += max(len(expected), 1)
        self.failed += count_failed(expected, got)

    def check(self, report) -> None:
        """Fold one serve's decisions into attempted/failed."""
        if not self.open_loop:
            self._tally(self.expected, _rows(report.decisions))
            return
        admitted = np.asarray(report.admitted_seq)
        if report.offered != report.admitted + report.shed \
                or report.admitted != len(admitted):
            self.attempted += report.offered
            self.failed += report.offered
            return
        sub, labels = self.trace.subset(admitted)
        replay = closed_loop_reference(self.compiled, sub, labels,
                                       self.capacity)
        self._tally(_rows(replay, seq_map=admitted),
                    _rows(report.serving.decisions))


# -- timed serves -------------------------------------------------------------

def _cpu_seconds() -> float:
    """User+system CPU of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def warm_up(compiled, config: EngineConfig, trace) -> float:
    """Serve the first ``WARMUP_PACKETS`` closed loop on a cold engine, under
    ``tracemalloc``; returns the MiB allocated at the serve's peak.

    The serve fills lazy caches before the timed repeats, and its allocation
    peak is the ``peak_alloc_mb`` metric: unlike the resident set it does not
    depend on what the allocator kept from earlier phases (``ru_maxrss`` of
    hitters_tcam read 56 or 72 MiB from one traffic seed to the next).
    """
    warm, labels = trace.subset(
        np.arange(min(WARMUP_PACKETS, trace.n_packets)))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with PegasusEngine.from_compiled(compiled, config) as engine:
            engine.serve(warm, labels=labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 2.0 ** 20


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest reaped child."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def serve_once(compiled, workload: Workload, config: EngineConfig, trace):
    """One cold engine: start, serve the whole trace, close.

    Returns ``(report, seconds start->close, cpu seconds start->close)``.
    """
    engine = PegasusEngine.from_compiled(compiled, config)
    gc.collect()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    engine.start()
    try:
        if workload.mode == "open":
            report = engine.serve(trace, mode="open",
                                  max_gap=workload.max_gap)
        else:
            report = engine.serve(trace.trace, labels=trace.labels)
    finally:
        engine.close()
    return report, time.perf_counter() - t0, _cpu_seconds() - cpu0


def end_to_end_sample(report, cpu_s: float, host: float) -> dict:
    """The per-repeat values behind the end-to-end metrics, at reference host
    speed: ``host`` is how slow the host was around the serve (see
    ``perf/hostprobe.py``); a value times or over ``host`` is as measured.

    Closed loop: every packet is handed over when ``serve()`` is called and
    its decision is available when it returns, so each packet's sojourn is
    the serve's wall clock. Open loop: goodput and admit->decision sojourn.
    """
    if hasattr(report, "serving"):
        served = max(report.admitted, 1)
        return {"pps": report.admitted / report.wall_seconds * host,
                "cpu_us_per_packet": 1e6 * cpu_s / served / host,
                "sojourn_p50_ms": report.latency.p50_ms / host,
                "shed_fraction": report.shed_fraction, "host": host}
    return {"pps": report.n_packets / report.wall_seconds * host,
            "cpu_us_per_packet": 1e6 * cpu_s / report.n_packets / host,
            "sojourn_p50_ms": 1e3 * report.wall_seconds / host, "host": host}


def timed_pass(compiled, workload, config, trace, checker, probe: HostProbe,
               budget_s: float, min_repeats: int,
               tracer: Tracer | None = None) -> list[dict]:
    """Repeat cold serves until ``budget_s`` measured seconds are spent.

    Each repeat yields its end-to-end sample plus, under a tracer, the
    per-layer metrics of that serve. A host probe runs between repeats and
    counts towards the budget; checking decisions does not.
    """
    scheduled_s = workload.scheduled_seconds(trace, config.time_scale) \
        if workload.mode == "open" else None
    repeats: list[dict] = []
    measured = last = 0.0
    probe()
    while len(repeats) < min_repeats or measured + last <= budget_s:
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        report, _, cpu_s = serve_once(compiled, workload, config, trace)
        host = probe.bracket()
        last = time.perf_counter() - started
        measured += last
        sample = end_to_end_sample(report, cpu_s, host)
        sample["wall_s"] = report.wall_seconds / host
        if tracer is not None:
            sample["layers"] = per_layer_metrics(tracer, report,
                                                 report.wall_seconds)
        elif scheduled_s is not None:
            sample["openloop"] = open_loop_metrics(report, scheduled_s)
        checker.check(report)
        repeats.append(sample)
    return repeats


# -- processes ----------------------------------------------------------------

def _child_pids() -> list[int]:
    """Live or unreaped children of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The parallel topology's workers end with ``engine.close()``, but the
    rings' ``multiprocessing.shared_memory`` segments start a
    ``resource_tracker`` helper that lives until this process is gone and
    then ends unreaped: it has to be told to stop, and be waited for, from
    here. Whatever else is still a child after that (a worker orphaned by an
    exception between ``start()`` and ``close()``) is terminated, then
    killed, and reaped.
    """
    from multiprocessing import resource_tracker
    try:
        # Closes the tracker's pipe, which ends it, and waits for it.
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass                # no such hook in this Python: swept up below
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except OSError:     # reaped elsewhere
                    pids.remove(pid)
            if pids:
                time.sleep(0.01)
        if not pids:
            return


# -- summaries ----------------------------------------------------------------

def summarize(values: list) -> dict:
    """Median, quartiles and count of one metric's per-repeat values; a
    sentinel string (``not_exercised`` / ``unresolved``) passes through."""
    strings = [v for v in values if isinstance(v, str)]
    if strings:
        return {"value": strings[0], "n": len(values)}
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "seed": seed,
            "loadavg_1m_start": os.getloadavg()[0]}


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace_pass: bool = False, quick: bool = False) -> dict:
    """Measure one workload; returns the result record (see README).

    The untraced pass always runs and gives the end-to-end metrics; with
    ``trace_pass`` half the budget goes to a traced pass that gives the
    per-layer metrics, and the two passes' walls give the tracing overhead.
    ``quick`` shrinks the trace and runs one repeat per pass.
    """
    record = {"schema": 1, "workload": workload.name, "seconds": seconds,
              "quick": quick, "provenance": provenance(seed)}
    model, train_views = train_model()
    trace = workload.generate(seed, quick)
    config = workload.engine_config(trace)
    probe = HostProbe()
    builds = 1 if quick or trace_pass else SETUP_BUILDS
    setup = measure_setup(model, train_views, config, builds, probe)
    compiled = model.compiled
    checker = Checker(compiled, workload, trace,
                      ORACLE_PREFIX_QUICK if quick else ORACLE_PREFIX)
    # The inputs are static from here on: keep the collector off them.
    gc.collect()
    gc.freeze()
    peak_alloc = warm_up(compiled, config, trace)

    budget = 0.0 if quick else (seconds / 2 if trace_pass else seconds)
    min_repeats = 1 if quick else MIN_REPEATS
    untraced = timed_pass(compiled, workload, config, trace, checker, probe,
                          budget, min_repeats)
    rss = peak_rss_mib()        # before a traced pass holds spans in memory

    if trace_pass:
        with Tracer() as tracer:
            traced = timed_pass(compiled, workload, config, trace, checker,
                                probe, budget, min_repeats, tracer)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT_DIR / f"trace-{workload.name}.jsonl")
            record["trace_unresolved"] = list(tracer.unresolved)
        layers = {name: summarize([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        open_stats = [r["openloop"] for r in untraced if "openloop" in r] \
            or [open_loop_metrics(None, None)]
        layers.update({name: summarize([s[name] for s in open_stats])
                       for name in open_stats[0]})
        wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_fraction"] = {
            "value": traced_wall / wall - 1.0, "n": len(traced)}
        record["per_layer"] = layers
        # As measured, for reading the `_s` layer metrics as shares.
        record["traced_wall_s"] = statistics.median(
            r["wall_s"] * r["host"] for r in traced)

    names = [n for n in untraced[0]
             if n not in ("openloop", "wall_s", "layers", "host")]
    end_to_end = {n: summarize([r[n] for r in untraced]) for n in names}
    end_to_end["setup_s"] = summarize([b["setup_s"] for b in setup])
    end_to_end["peak_alloc_mb"] = {"value": peak_alloc, "n": 1}
    end_to_end["peak_rss_mb"] = {"value": rss, "n": 1}
    end_to_end.setdefault("shed_fraction", {"value": NOT_EXERCISED, "n": 0})
    end_to_end["failed_fraction"] = {
        "value": checker.failed / checker.attempted, "n": checker.attempted}
    raw = {n: [r[n] for r in untraced] for n in names + ["host"]}
    raw["setup_s"] = [b["setup_s"] for b in setup]
    raw["setup_host"] = [b["host"] for b in setup]
    record.update(n_packets=trace.n_packets, end_to_end=end_to_end, raw=raw,
                  reference_digest=checker.reference_digest,
                  attempted=checker.attempted, failed=checker.failed,
                  correct=checker.failed == 0)
    return record
