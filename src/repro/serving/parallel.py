"""Parallel multi-process serving over shared-memory rings.

:class:`~repro.serving.ShardedDispatcher` replays its replicas *serially*
and models parallel wall clock as ``max(shard_seconds)``;
:class:`ParallelDispatcher` is the same dispatcher with a process transport
that makes that wall clock real. Each of ``n_workers`` persistent
``multiprocessing`` workers owns one runtime replica (built from
``runtime_factory`` inside the worker) and a pair of preallocated
shared-memory rings (:mod:`repro.serving.rings`):

- the driver gathers each shard's packets **directly into ingress ring
  slots** as columnar NumPy views (``np.take`` into the mapped segment —
  no intermediate arrays, nothing pickled);
- the worker replays each slot **in place** and writes its decision
  stream into the matching egress slot;
- only fixed-size chunk descriptors — ``("chunk", slot, rows)`` out,
  ``("chunk_ok", slot, n_decisions)`` back — cross the worker pipe.

Dispatch and merge are **pipelined** gZCCL-style: up to ``ring_depth``
chunks are in flight per worker, and the driver scatters each finished
egress slot into the preallocated decision columns while workers are still
replaying later chunks — compute never idles on transfer in either
direction. ``ring_stalls`` counts the times the driver had chunks ready
but every slot of some worker's ring was still in flight (backpressure).

The shard split and the per-shard batch spans are the base class's, so for
any worker count, ring depth, or chunk size the decisions (and flush/cache
counters) are **bit-identical** to ``ShardedDispatcher`` with
``n_shards == n_workers`` — asserted by ``tests/test_serving_parallel.py``
and the differential harness (``repro.eval.differential``).

Usage::

    from repro.serving import BatchScheduler, FlowDecisionCache, ParallelDispatcher

    with ParallelDispatcher(
        runtime_factory=lambda: WindowedClassifierRuntime(
            compiled,
            feature_mode="stats",
            batch_size=256,
            decision_cache=FlowDecisionCache(65536),
        ),
        n_workers=4,
        scheduler=BatchScheduler(batch_size=256, timeout=0.050),
    ) as dispatcher:
        decisions = dispatcher.serve_flows(test_flows)
        pps = len(decisions) / dispatcher.wall_seconds

Workers default to the ``fork`` start method (the factory closure —
typically capturing a compiled model — is inherited, never pickled); on
platforms without ``fork`` the dispatcher falls back to ``spawn``, which
requires a picklable factory. Replica state (flow registers, decision
caches) lives in the workers: it persists across ``serve_*`` calls and is
discarded by ``close()``, which also unlinks every shared-memory segment.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable

import numpy as np

from repro.dataplane.runtime import PacketDecision
from repro.dataplane.schema import (
    DECISION_COLUMNS,
    EGRESS_RING_ORDER,
    WIRE_COLUMNS,
    decision_dtype,
    validation_enabled,
)
from repro.errors import ConfigError, WorkerError
from repro.net.traces import KEY_COLUMN_NAMES, Trace, keys_from_columns
from repro.serving.cache import CacheStats
# shard_hash_columns is re-exported: the flow-pinning hash was importable
# from here before the split moved to the base class, and perf/ looks it up.
from repro.serving.dispatcher import (ShardedDispatcher, build_replica,
                                      shard_hash_columns)  # noqa: F401
from repro.serving.rings import (
    RingSegments,
    RingSpec,
    attach_ring,
    scatter_decision_chunk,
    write_egress_chunk,
    write_ingress_chunk,
)
from repro.serving.scheduler import BatchScheduler

#: Auto chunk size (``ring_chunk=None``): at least this many rows per slot,
#: or the scheduler's batch size when that is larger — so one slot holds at
#: least one full batch and the descriptor rate stays negligible.
DEFAULT_CHUNK_ROWS = 256


def serve_chunk(runtime, spec: RingSpec, ingress, egress,
                slot: int, rows: int) -> tuple:
    """Replay one ingress ring slot in place; write the egress slot.

    Runs inside a worker process (also directly callable in-process, which
    the unit tests use). Builds column views over the slot, validates them
    against the wire schema (debug-gated), replays the chunk as one batch
    span, and stores the decision stream straight into the egress slot.
    Returns the ``("chunk_ok", slot, n_decisions, seconds)`` ack.
    """
    views = spec.ingress_views(ingress.buf, slot, rows)
    if validation_enabled():
        WIRE_COLUMNS.validate_columns(
            views, context=f"worker ingress ring read (slot {slot})")
    keys = keys_from_columns({name: views[name]
                              for name in KEY_COLUMN_NAMES})
    cols = {"ts": views["ts"], "length": views["length"]}
    if "payload" in views:
        cols["payload"] = views["payload"]
    started = time.perf_counter()
    decisions = runtime.process_columns(
        cols, keys, labels=views["labels"], spans=[(0, rows)])
    seconds = time.perf_counter() - started
    out = spec.egress_views(egress.buf, slot, rows)
    produced = write_egress_chunk(out, decisions)
    return ("chunk_ok", slot, produced, seconds)


def worker_main(conn, runtime_factory, ingress_name: str, egress_name: str,
                spec: RingSpec, lookup_backend=None) -> None:
    """Persistent worker loop: one replica, one ring pair, chunks until EOF.

    The replica and the ring attachments are built on the warm ping so
    construction cost lands in the worker and a broken factory surfaces
    immediately. Replica state (flow registers, decision caches) persists
    across serves, exactly like a long-lived replica would.
    ``lookup_backend``, when set, is applied to the freshly built replica
    (so TCAM compilation also happens worker-side, behind the warm ping).

    Protocol (driver -> worker / worker -> driver):

    - ``("warm",)`` -> ``("ok", None)`` | ``("error", traceback)``
    - ``("serve", l2_seed, l2_admit)`` — resets per-serve state, no reply
    - ``("chunk", slot, rows)`` -> ``("chunk_ok", slot, n, seconds)`` |
      ``("chunk_err", slot, traceback)``
    - ``("end",)`` -> ``("done", {seconds, cache_stats, l2_export, error})``
    - ``None`` — shut down

    A chunk failure never kills the loop: the slot is acked with the
    traceback so the driver can drain the ring, stop feeding this worker,
    and raise after every fleet member reports done.
    """
    runtime = None
    ingress = egress = None
    serve_error = None
    serve_seconds = 0.0
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            op = msg[0]
            if op == "warm":
                try:
                    if runtime is None:
                        runtime = build_replica(runtime_factory,
                                                lookup_backend)
                    if ingress is None:
                        ingress = attach_ring(ingress_name)
                        egress = attach_ring(egress_name)
                    conn.send(("ok", None))
                except Exception:
                    conn.send(("error", traceback.format_exc()))
            elif op == "serve":
                serve_error = None
                serve_seconds = 0.0
                try:
                    _, l2_seed, l2_admit = msg
                    cache = getattr(runtime, "decision_cache", None)
                    if getattr(cache, "two_level", False):
                        # Per-serve L2 admission gate, and read-mostly L2
                        # sharing: entries other workers published on
                        # earlier serves seed this replica's store (never
                        # counted as its inserts, never re-exported).
                        cache.l2_admit = bool(l2_admit)
                        if l2_seed:
                            cache.import_l2(l2_seed)
                except Exception:
                    serve_error = traceback.format_exc()
            elif op == "chunk":
                slot, rows = msg[1], msg[2]
                if serve_error is not None:
                    conn.send(("chunk_err", slot, serve_error))
                    continue
                try:
                    ack = serve_chunk(runtime, spec, ingress, egress,
                                      slot, rows)
                    serve_seconds += ack[3]
                    conn.send(ack)
                except Exception:
                    conn.send(("chunk_err", slot, traceback.format_exc()))
            elif op == "end":
                try:
                    cache = getattr(runtime, "decision_cache", None)
                    two_level = getattr(cache, "two_level", False)
                    payload = {
                        "seconds": serve_seconds,
                        "cache_stats": cache.stats if cache is not None
                        else None,
                        "l2_export": cache.export_l2() if two_level
                        else None,
                        "error": serve_error,
                    }
                except Exception:
                    payload = {"seconds": serve_seconds,
                               "error": traceback.format_exc()}
                conn.send(("done", payload))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    finally:
        for shm in (ingress, egress):
            if shm is not None:
                try:
                    shm.close()
                except (BufferError, OSError):  # pragma: no cover
                    pass
        conn.close()


def _chunk_cuts(spans, chunk_rows: int):
    """Yield ``(a, b)`` chunk bounds over one shard, at most a slot each.

    ``spans`` are the scheduler's batch spans (cut from the shard's own
    timestamps by the shard split) or, without a scheduler, the whole shard
    as one span; each is split to the slot capacity. Batch cuts never
    change decisions or cache counters (asserted by the serving tests), so
    slot capacity is pure transport geometry.
    """
    for a, b in spans:
        for s in range(a, b, chunk_rows):
            yield s, min(s + chunk_rows, b)


@dataclass
class _WorkerServe:
    """Driver-side per-worker state for one serve (ring bookkeeping)."""

    w: int
    conn: Any
    member: np.ndarray                  # global positions of shard packets
    chunks: Any                         # iterator of (a, b) shard spans
    base_by_slot: dict = field(default_factory=dict)
    next_seq: int = 0                   # chunks dispatched so far
    inflight: int = 0
    exhausted: bool = False
    end_sent: bool = False


class ParallelDispatcher(ShardedDispatcher):
    """Serve traces across ``n_workers`` concurrent runtime replicas.

    :class:`~repro.serving.ShardedDispatcher` with a process transport:
    same serve path, flow pinning and driver-side batch spans, but only the
    lifecycle (rings, workers) and ``_execute`` (the ring pump) are defined
    here, so ``wall_seconds`` is *measured* concurrent wall clock.
    ``runtime_factory`` runs — and ``lookup_backend`` is applied — inside
    each worker; ``payload_bytes`` (for :class:`TwoStageRuntime` replicas)
    reserves a payload matrix in every ingress slot; ``ring_chunk`` caps
    rows per slot (default: ``max(DEFAULT_CHUNK_ROWS, scheduler batch
    size)``). ``shard_seconds`` and ``cache_stats`` are what the workers
    report with their ``done`` reply.
    """

    in_process = False

    def __init__(self, runtime_factory: Callable[[], Any], n_workers: int = 1,
                 scheduler: BatchScheduler | None = None,
                 lookup_backend: str | None = None,
                 payload_bytes: int | None = None,
                 start_method: str | None = None, ring_depth: int = 4,
                 ring_chunk: int | None = None):
        if n_workers < 1:
            raise ConfigError("n_workers", n_workers, allowed=">= 1")
        super().__init__(runtime_factory, n_workers, scheduler,
                         lookup_backend)
        self.payload_bytes = payload_bytes
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.ring_depth, self.ring_chunk = ring_depth, ring_chunk
        self.ring_stalls = 0
        chunk_rows = ring_chunk
        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
            if scheduler is not None:
                chunk_rows = max(chunk_rows, scheduler.batch_size)
        # RingSpec validates ring_depth / ring_chunk (>= 1 each).
        self._spec = RingSpec(depth=ring_depth, chunk_rows=chunk_rows,
                              payload_cols=payload_bytes or 0)
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list = []
        self._conns: list = []
        self._segments: RingSegments | None = None
        # Master copy of the shared L2: every entry any worker published, in
        # deterministic worker order, deduplicated by (bucket, box). Shipped
        # to all workers as the seed of the next serve.
        self._l2_entries: list = []
        self._l2_seen: set = set()

    @property
    def n_workers(self) -> int:
        return self.n_shards

    @property
    def started(self) -> bool:
        return bool(self._workers)

    @property
    def segment_names(self) -> list[str]:
        """Names of the live shared-memory segments (leak-check hook)."""
        return self._segments.segment_names if self._segments else []

    def start(self) -> None:
        """Create the rings, fork the workers, build their replicas.

        No-op when already running. Replica construction and ring
        attachment happen behind a warm-up ping, so ``wall_seconds`` of the
        first serve measures serving — not ``runtime_factory`` — and a
        broken factory surfaces immediately. Segments are created *before*
        any fork and their names passed down, so the same path serves
        ``fork`` and ``spawn`` workers.
        """
        if self._workers:
            return
        self.cache_stats = CacheStats()     # cold fleet, zero lifetime
        try:
            self._segments = RingSegments(self.n_workers, self._spec)
            for w in range(self.n_workers):
                parent_conn, child_conn = self._ctx.Pipe()
                ingress_name, egress_name = self._segments.names(w)
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(child_conn, self.runtime_factory, ingress_name,
                          egress_name, self._spec, self.lookup_backend),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append(proc)
                self._conns.append(parent_conn)
            for conn in self._conns:
                conn.send(("warm",))
            failures = {}
            for w, conn in enumerate(self._conns):
                status, reply = conn.recv()
                if status != "ok":
                    failures[w] = (f"worker {w} failed to build its "
                                   f"replica:\n{reply}")
            if failures:
                raise WorkerError(failures)
        except BaseException:
            # A partially started fleet (spawn error, failed warm ping,
            # interrupt) must never leak processes, pipes, or shared-memory
            # segments: tear down whatever came up, then surface the
            # original error.
            self.close()
            raise

    def close(self) -> None:
        """Shut workers down, unlink the rings, discard replica state.

        Idempotent and exception-safe: callable any number of times, after
        a failed :meth:`start`, and from ``__exit__`` while a serve error
        is propagating — dead workers and broken pipes are tolerated,
        every shared-memory segment is unlinked regardless, and the
        dispatcher is always left restartable (a later serve creates fresh
        rings and forks a fresh cold fleet). The engine's lifecycle relies
        on being able to call this unconditionally.
        """
        workers, conns = self._workers, self._conns
        segments, self._segments = self._segments, None
        self._workers, self._conns = [], []
        self._l2_entries, self._l2_seen = [], set()   # cold fleet, cold L2
        for conn in conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for proc in workers:
            try:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join()
            except (AssertionError, ValueError, OSError):  # pragma: no cover
                pass                 # never-started / already-reaped process
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if segments is not None:
            # Unlink only after every worker is down: attached views keep
            # the memory alive until then, but the /dev/shm name must go.
            segments.close()

    def _merge_l2(self, entries: list) -> None:
        """Fold one worker's published L2 entries into the master copy.

        Exports are merged in worker order (the serve loop collects them
        per worker and folds w = 0..n-1 after the drain), so the master
        list — and therefore every worker's next seed — is deterministic
        for a given serve history.
        """
        for qk, lo, hi, decision in entries:
            key = (qk, lo.tobytes(), hi.tobytes())
            if key in self._l2_seen:
                continue
            self._l2_seen.add(key)
            self._l2_entries.append((qk, lo, hi, decision))

    def _execute(self, trace: Trace, keys, sources: dict,
                 shards: list) -> list:
        """Pump shard chunks through the rings; merge decision streams.

        The pump keeps up to ``ring_depth`` chunks in flight per worker
        and scatters every finished egress slot while later chunks are
        still replaying (dispatch/merge overlap). Decisions come back in
        global trace order, exactly as the in-process dispatcher would
        produce them.
        """
        states = []
        for w, (conn, (member, stream)) in enumerate(zip(self._conns, shards)):
            spans = [(0, len(member))] if stream is None else stream
            states.append(_WorkerServe(
                w, conn, member, _chunk_cuts(spans, self._spec.chunk_rows)))
            conn.send(("serve", self._l2_entries or None, self.l2_admit))

        self.ring_stalls = 0
        n = len(sources["ts"])
        # Explicit per-column literal (not a comprehension) so the
        # columnar-schema lint checks every dtype against the declaration.
        merged = {
            "seq": np.zeros(n, dtype=decision_dtype("seq")),
            "flow_label": np.zeros(n, dtype=decision_dtype("flow_label")),
            "predicted": np.zeros(n, dtype=decision_dtype("predicted")),
            "ts": np.zeros(n, dtype=decision_dtype("ts")),
        }
        valid = np.zeros(n, dtype=np.bool_)
        failures: dict[int, str] = {}       # worker -> its first report
        done_payloads: list[dict | None] = [None] * self.n_workers
        pending = {st.conn: st for st in states}

        while pending:
            for st in states:
                if st.conn in pending:
                    self._pump(st, sources, failures, pending)
            if not pending:
                break
            if any(st.conn in pending and not st.exhausted
                   and st.inflight >= self._spec.depth for st in states):
                # Backpressure: chunks are ready but some worker's ring is
                # full — the driver genuinely waits on the fleet here.
                self.ring_stalls += 1
            for conn in _wait_ready(list(pending)):
                st = pending[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    failures.setdefault(st.w, f"worker {st.w} failed:\n"
                                              f"worker process died mid-serve")
                    del pending[conn]
                    continue
                self._absorb(st, msg, merged, valid, done_payloads,
                             failures, pending)

        for w, payload in enumerate(done_payloads):
            if payload is None:
                continue
            self.shard_seconds[w] = payload.get("seconds", 0.0)
            if payload.get("cache_stats") is not None:
                self.cache_stats.merge(payload["cache_stats"])
            if payload.get("l2_export"):
                self._merge_l2(payload["l2_export"])
        if failures:
            raise WorkerError(failures)

        return [
            PacketDecision(
                flow_label=int(merged["flow_label"][i]),
                predicted=int(merged["predicted"][i]),
                ts=float(merged["ts"][i]),
                seq=int(i),
            )
            for i in np.flatnonzero(valid)
        ]

    def _pump(self, st: _WorkerServe, sources: dict, failures: dict,
              pending: dict) -> None:
        """Fill this worker's free ring slots with its next shard chunks.

        Slots are claimed round-robin (``next_seq % depth``); a slot is
        free again only once its ack arrived, so ``inflight < depth``
        guarantees the worker is done with the slot being overwritten.
        A failed worker stops being fed (its remaining spans are dropped —
        the serve raises after the drain anyway).
        """
        if st.w in failures:
            st.exhausted = True
        while not st.exhausted and st.inflight < self._spec.depth:
            span = next(st.chunks, None)
            if span is None:
                st.exhausted = True
                break
            a, b = span
            slot = st.next_seq % self._spec.depth
            views = self._spec.ingress_views(
                self._segments.ingress[st.w].buf, slot, b - a)
            write_ingress_chunk(views, sources, st.member[a:b])
            if not self._send(st, ("chunk", slot, b - a), failures, pending):
                return
            st.base_by_slot[slot] = a
            st.next_seq += 1
            st.inflight += 1
        if st.exhausted and not st.end_sent:
            st.end_sent = True
            self._send(st, ("end",), failures, pending)

    def _send(self, st: _WorkerServe, msg: tuple, failures: dict,
              pending: dict) -> bool:
        """Send one descriptor, declaring the worker dead on a broken pipe."""
        try:
            st.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            failures.setdefault(st.w, f"worker {st.w} failed:\nworker "
                                      f"process died mid-serve (broken pipe)")
            st.exhausted = True
            st.end_sent = True
            pending.pop(st.conn, None)
            return False

    def _absorb(self, st: _WorkerServe, msg: tuple, merged: dict,
                valid: np.ndarray, done_payloads: list, failures: dict,
                pending: dict) -> None:
        """Fold one worker reply into the merge state."""
        op = msg[0]
        if op == "chunk_ok":
            _, slot, produced, _seconds = msg
            st.inflight -= 1
            if produced:
                views = self._spec.egress_views(
                    self._segments.egress[st.w].buf, slot, produced)
                if validation_enabled():
                    # The consume side of the ring contract: a worker whose
                    # decision stream drifted dtype would otherwise be
                    # silently cast by the scatter below.
                    DECISION_COLUMNS.validate_columns(
                        views, require=EGRESS_RING_ORDER,
                        context=f"worker {st.w} reply "
                                f"(egress ring read, slot {slot})")
                base = st.base_by_slot[slot]
                gseq = st.member[base + views["seq"]]
                scatter_decision_chunk(merged, valid, gseq, views, produced)
        elif op == "chunk_err":
            st.inflight -= 1
            failures.setdefault(st.w, f"worker {st.w} failed:\n{msg[2]}")
        elif op == "done":
            done_payloads[st.w] = msg[1]
            if msg[1].get("error"):
                failures.setdefault(
                    st.w, f"worker {st.w} failed:\n{msg[1]['error']}")
            del pending[st.conn]
