"""Outside-in tracing: timing wrappers around each layer's public callables.

The span table below names the boundary of every layer as a dotted path.
:class:`Tracer` resolves each path, swaps in a timing wrapper for the traced
pass only, and restores the originals afterwards; nothing under ``src/`` is
edited. A path that no longer resolves (a later PR deleted or renamed it) is
listed in ``Tracer.unresolved`` and its metrics read ``"unresolved"``.

A span's *self* time is its duration minus the part its child spans cover.
Callables that run once per packet (``agg=True``) are not recorded one span
each: they are summed per parent span as count + total. Worker processes of
the ``parallel`` topology are not traced (their spans would die with the
fork); their time is the ``parallel.*`` lump from ``report.shard_seconds``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from types import FunctionType, ModuleType

NOT_EXERCISED = "not_exercised"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class SpanDef:
    """One traced callable.

    ``rows`` sums ``len(args[1])`` (the batch a model-side call was given),
    ``count_none`` counts calls that returned None, ``capture`` keeps the
    last ``self`` so a public counter on it can be read after the serve.
    """

    path: str
    name: str
    agg: bool = False
    rows: bool = False
    count_none: bool = False
    capture: bool = False


_CACHE = "repro.serving.cache."

SPAN_TABLE = (
    SpanDef("repro.serving.engine.PegasusEngine.serve", "engine.serve"),
    SpanDef("repro.net.traces.Trace.canonical_keys", "traces.keys"),
    SpanDef("repro.net.traces.Trace.canonical_key_columns", "traces.keys"),
    SpanDef("repro.net.traces.Trace.packet_columns", "traces.columns"),
    SpanDef("repro.dataplane.runtime.WindowedClassifierRuntime.process_trace",
            "runtime.replay"),
    SpanDef("repro.dataplane.runtime.WindowedClassifierRuntime.process_columns",
            "runtime.replay"),
    SpanDef("repro.dataplane.registers.VectorFlowState.acquire",
            "registers.acquire", agg=True, count_none=True, capture=True),
    SpanDef("repro.core.mapping.CompiledModel.predict", "mapping.predict",
            rows=True),
    SpanDef("repro.core.mapping.SegmentTable.lookup", "mapping.lookup"),
    SpanDef("repro.core.mapping.certified_decision_box", "mapping.certificate",
            rows=True),
    SpanDef("repro.core.fuzzy.FuzzyTree.predict_index", "fuzzy.index",
            rows=True),
    SpanDef("repro.dataplane.tcam.TcamSegment.lookup_indices", "tcam.lookup",
            rows=True),
    SpanDef(_CACHE + "FlowDecisionCache.get", "cache.l1", agg=True),
    SpanDef(_CACHE + "FlowDecisionCache.peek", "cache.l1", agg=True),
    SpanDef(_CACHE + "FlowDecisionCache.put", "cache.l1", agg=True),
    SpanDef(_CACHE + "FlowDecisionCache.fill", "cache.l1", agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.exact_get", "cache.l1", agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.promote", "cache.l1", agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.approx_get", "cache.l2_probe",
            agg=True),
    SpanDef(_CACHE + "QuantizedDecisionStore.probe", "cache.l2_probe",
            agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.reserve_l2", "cache.l2_insert",
            agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.insert", "cache.l2_insert",
            agg=True),
    SpanDef(_CACHE + "TwoLevelDecisionCache.fill", "cache.l2_insert",
            agg=True),
    SpanDef(_CACHE + "QuantizedDecisionStore.insert", "cache.l2_insert",
            agg=True),
    SpanDef(_CACHE + "QuantizedDecisionStore.resolve", "cache.l2_insert",
            agg=True),
    SpanDef("repro.serving.dispatcher.shard_hash_columns", "dispatcher.hash"),
    SpanDef("repro.serving.rings.write_ingress_chunk", "rings.write"),
    SpanDef("repro.serving.rings.scatter_decision_chunk", "rings.scatter"),
    SpanDef("repro.serving.parallel.ParallelDispatcher.serve_trace",
            "parallel.serve", capture=True),
    SpanDef("repro.serving.openloop.OpenLoopPump.run", "openloop.pump"),
    SpanDef("repro.serving.openloop.AimdAdmission.admit", "openloop.admission",
            agg=True),
    SpanDef("repro.serving.openloop.AimdAdmission.observe",
            "openloop.admission", agg=True),
)

# Indices into one span name's running totals.
CALLS, INCL, SELF, ROWS, NONES = range(5)


def _resolve(path: str):
    """``(owner, attribute name)`` of a dotted path; raises if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(path)


class Tracer:
    """Installs the span table's wrappers; holds spans and running totals."""

    def __init__(self, table=SPAN_TABLE):
        self.table = tuple(table)
        self.unresolved: list[str] = []
        self.totals = {d.name: [0, 0.0, 0.0, 0, 0] for d in self.table}
        self.captured: dict[str, object] = {}
        self.spans: list = []        # (name, start, end, parent id, serve id)
        self.aggregates: dict = {}   # (name, parent id, serve id) -> [n, total]
        self.off_thread_s = 0.0      # root spans of threads other than main
        self.serve_id = 0
        self._tls = threading.local()
        self._patches: list = []     # (owner, attribute, had own, original)

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for d in self.table:
            try:
                owner, attr = _resolve(d.path)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.unresolved.append(d.path)
                continue
            if not isinstance(original, FunctionType):
                self.unresolved.append(d.path)
                continue
            wrapper = self._wrap(d, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, ModuleType):
                # `from module import function` copied the reference into
                # the importer's namespace; patch those copies too.
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and vars(module).get(attr) is original):
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)     # inherited: drop the shadow

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (start of a traced repeat)."""
        for tot in self.totals.values():
            tot[:] = [0, 0.0, 0.0, 0, 0]
        self.captured.clear()
        self.spans = []
        self.aggregates = {}
        self.off_thread_s = 0.0
        self.serve_id = 0

    def _stack(self) -> list:
        tls = self._tls
        try:
            return tls.stack
        except AttributeError:
            tls.main = threading.current_thread() is threading.main_thread()
            tls.stack = []
            return tls.stack

    def _wrap(self, d: SpanDef, fn):
        tot = self.totals[d.name]
        clock = time.perf_counter
        name, agg, rows = d.name, d.agg, d.rows
        count_none, capture = d.count_none, d.capture
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][1] if stack else -1
            if not stack and tracer._tls.main:
                tracer.serve_id += 1
            if agg:
                sid = parent
            else:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_none and result is None:
                    tot[NONES] += 1
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tot[CALLS] += 1
                tot[INCL] += dur
                tot[SELF] += dur - frame[0]
                if rows:
                    tot[ROWS] += len(args[1])
                if capture:
                    tracer.captured[name] = args[0]
                if stack:
                    stack[-1][0] += dur
                elif not tracer._tls.main:
                    tracer.off_thread_s += dur
                if agg:
                    cell = tracer.aggregates.setdefault(
                        (name, parent, tracer.serve_id), [0, 0.0])
                    cell[0] += 1
                    cell[1] += dur
                else:
                    tracer.spans[sid] = (name, start, end, parent,
                                         tracer.serve_id)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_jsonl(self, path) -> None:
        """Dump the spans of the last traced repeat, one JSON object a line."""
        with open(path, "w") as out:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, serve = span
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "serve": serve}) + "\n")
            for (name, parent, serve), (n, total) in self.aggregates.items():
                out.write(json.dumps({
                    "name": name, "parent": parent, "serve": serve,
                    "count": n, "total_s": total}) + "\n")

    # -- reading -------------------------------------------------------------

    def _names_gone(self) -> set:
        """Span names with no installed path at all."""
        live = {d.name for d in self.table if d.path not in self.unresolved}
        return {d.name for d in self.table} - live

    def seconds(self, name: str, which: int = SELF):
        """Summed self (or inclusive) seconds of a span name."""
        if name in self._names_gone():
            return UNRESOLVED
        tot = self.totals[name]
        return tot[which] if tot[CALLS] else NOT_EXERCISED

    def count(self, name: str, which: int = CALLS):
        if name in self._names_gone():
            return UNRESOLVED
        return self.totals[name][which]

    def attribute(self, name: str, attr: str):
        """A public counter read off the last ``self`` a span captured."""
        if name in self._names_gone():
            return UNRESOLVED
        obj = self.captured.get(name)
        return getattr(obj, attr, UNRESOLVED) if obj is not None \
            else NOT_EXERCISED


def ratio(num, den, scale: float = 1.0):
    """``scale * num / den`` that passes the sentinels through."""
    for v in (num, den):
        if isinstance(v, str):
            return v
    return scale * num / den if den else NOT_EXERCISED


def per_layer_metrics(tracer: Tracer, report, wall: float) -> dict:
    """The span-derived per-layer metrics of one traced serve.

    ``report`` is the serve's public report (``ServingReport`` or
    ``OpenLoopReport``) and ``wall`` its wall seconds. Spans give times and
    call counts; the report's public stats give the counters the engine
    already keeps.
    """
    t = tracer
    open_loop = hasattr(report, "serving")
    serving = report.serving if open_loop else report
    served = serving.n_packets
    cache = serving.cache_stats
    cached = cache.lookups > 0
    flushes = serving.flush_stats.total
    shards = serving.shard_seconds if serving.topology == "parallel" else []

    def if_cached(value):
        return value if cached else NOT_EXERCISED

    m = {
        "engine.self_s": t.seconds("engine.serve"),
        "engine.serve_calls": _add(t.count("runtime.replay"),
                                   t.count("parallel.serve")),
        "traces.keys_s": t.seconds("traces.keys"),
        "traces.columns_s": t.seconds("traces.columns"),
        "scheduler.flushes": flushes,
        "scheduler.rows_per_flush": ratio(served, flushes),
        "registers.acquire_s": t.seconds("registers.acquire"),
        "registers.acquire_calls": t.count("registers.acquire"),
        "registers.blocked": t.count("registers.acquire", NONES),
        "registers.evictions": t.attribute("registers.acquire", "evictions"),
        "runtime.self_s": t.seconds("runtime.replay"),
        "runtime.decisions": len(serving.decisions),
        "runtime.ready_fraction": ratio(len(serving.decisions), served),
        "mapping.predict_s": t.seconds("mapping.predict"),
        "mapping.predict_calls": t.count("mapping.predict"),
        "mapping.rows_per_call": ratio(t.count("mapping.predict", ROWS),
                                       t.count("mapping.predict")),
        "mapping.lookup_self_s": t.seconds("mapping.lookup"),
        "mapping.lookup_calls": t.count("mapping.lookup"),
        "mapping.certificate_s": t.seconds("mapping.certificate"),
        "mapping.certificate_incl_s": t.seconds("mapping.certificate", INCL),
        "mapping.certificate_calls": t.count("mapping.certificate"),
        "mapping.certificate_rows": t.count("mapping.certificate", ROWS),
        "fuzzy.index_s": t.seconds("fuzzy.index"),
        "fuzzy.index_calls": t.count("fuzzy.index"),
        "fuzzy.rows_per_call": ratio(t.count("fuzzy.index", ROWS),
                                     t.count("fuzzy.index")),
        "fuzzy.us_per_row": ratio(t.seconds("fuzzy.index"),
                                  t.count("fuzzy.index", ROWS), 1e6),
        "tcam.lookup_s": t.seconds("tcam.lookup"),
        "tcam.lookup_calls": t.count("tcam.lookup"),
        "tcam.us_per_row": ratio(t.seconds("tcam.lookup"),
                                 t.count("tcam.lookup", ROWS), 1e6),
        "cache.l1_s": t.seconds("cache.l1"),
        "cache.l2_probe_s": t.seconds("cache.l2_probe"),
        "cache.l2_insert_s": t.seconds("cache.l2_insert"),
        "cache.exact_hits": cache.exact_hits,
        "cache.approx_hits": cache.approx_hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "cache.l2_skipped": cache.l2_skipped,
        "cache.hit_rate": if_cached(cache.hit_rate),
        "dispatcher.hash_s": t.seconds("dispatcher.hash"),
        "rings.write_s": t.seconds("rings.write"),
        "rings.scatter_s": t.seconds("rings.scatter"),
        "rings.chunks": t.count("rings.write"),
        "rings.stalls": t.attribute("parallel.serve", "ring_stalls"),
        "parallel.serve_self_s": t.seconds("parallel.serve"),
        "openloop.pump_self_s": t.seconds("openloop.pump"),
        "openloop.admission_s": t.seconds("openloop.admission"),
        "openloop.admit_calls": t.count("openloop.admission"),
        "trace.attributed_fraction": ratio(
            sum(tot[SELF] for tot in t.totals.values()) - t.off_thread_s,
            wall),
        "trace.unresolved": len(t.unresolved),
    }
    if shards:
        m["parallel.worker_busy_s"] = sum(shards)
        m["parallel.critical_s"] = max(shards)
        m["parallel.driver_overhead_s"] = wall - max(shards)
        m["parallel.imbalance"] = ratio(max(shards) * len(shards), sum(shards))
    else:
        for name in ("worker_busy_s", "critical_s", "driver_overhead_s",
                     "imbalance"):
            m["parallel." + name] = NOT_EXERCISED
    return m


def open_loop_metrics(report, scheduled_s: float | None) -> dict:
    """``openloop.*`` metrics that come from the report, not from spans, so
    the untraced serves supply them undisturbed (``report`` None: closed
    loop). ``scheduled_s`` is the paced duration of the offered trace."""
    names = ("shed_fraction", "sojourn_p50_ms", "sojourn_p99_ms",
             "sojourn_mean_ms", "queue_depth_max", "generator_lag_s",
             "offered_pps")
    if report is None:
        return {"openloop." + n: NOT_EXERCISED for n in names}
    lat = report.latency
    values = (report.shed_fraction, lat.p50_ms, lat.p99_ms, lat.mean_ms,
              max(p.queue_depth_max for _, p in report.phases),
              report.wall_seconds - scheduled_s, report.offered_pps)
    return {"openloop." + n: v for n, v in zip(names, values)}


def _add(a, b):
    for v in (a, b):
        if isinstance(v, str):
            return v
    return a + b
