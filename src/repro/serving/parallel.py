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

The shard split and the flush accounting are the base class's. Each shard
is cut into ring chunks of ``min(batch_size, ring slot)`` rows, and a worker
replays each chunk as one register step, so ``flush_stats`` counts chunks.
Cuts never change a decision, so for any worker count, ring depth, or chunk
size the decisions (and cache counters) are **bit-identical** to
``ShardedDispatcher`` with ``n_shards == n_workers`` — asserted by
``tests/test_serving_parallel.py`` and the differential harness
(``repro.eval.differential``).

Usage::

    from repro.serving import FlowDecisionCache, ParallelDispatcher

    with ParallelDispatcher(
        runtime_factory=lambda: WindowedClassifierRuntime(
            compiled,
            feature_mode="stats",
            decision_cache=FlowDecisionCache(65536),
        ),
        n_workers=4,
        batch_size=256,
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

from repro.dataplane.decisions import DecisionBatch, alloc_decision_columns
from repro.dataplane.schema import DECISION_COLUMNS
from repro.errors import ConfigError, WorkerError
from repro.net.traces import Trace
from repro.serving.cache import CacheStats
# shard_hash_columns is re-exported: the flow-pinning hash was importable
# from here before the split moved to the base class, and perf/ looks it up.
from repro.serving.dispatcher import (ShardedDispatcher,
                                      shard_hash_columns)  # noqa: F401
from repro.serving.rings import (
    RingSegments,
    RingSpec,
    attach_ring,
    scatter_decision_chunk,
    write_egress_chunk,
    write_ingress_chunk,
)

#: Auto slot size (``ring_chunk=None``): at least this many rows per slot,
#: or the batch size when that is larger — so one slot holds a whole chunk
#: and the descriptor rate stays negligible.
DEFAULT_CHUNK_ROWS = 256


def serve_chunk(runtime, spec: RingSpec, ingress, egress,
                slot: int, rows: int) -> tuple:
    """Replay one ingress ring slot in place; write the egress slot.

    Runs inside a worker process (also directly callable in-process, which
    the unit tests use). Builds column views over the slot (schema-typed by
    construction), replays the chunk as one register step, validates the
    replica's decisions against the decision schema — the egress store
    below would silently cast a drifted column — and stores them straight
    into the egress slot. Returns the ``("chunk_ok", slot, n_decisions,
    seconds)`` ack.
    """
    views = spec.ingress_views(ingress.buf, slot, rows)
    started = time.perf_counter()
    decisions = runtime.process_columns(views, labels=views["labels"],
                                        batch_size=rows)
    seconds = time.perf_counter() - started
    DECISION_COLUMNS.validate_columns(
        decisions.columns(), context=f"worker chunk decisions (slot {slot})")
    out = spec.egress_views(egress.buf, slot, rows)
    produced = write_egress_chunk(out, decisions)
    return ("chunk_ok", slot, produced, seconds)


def worker_main(conn, runtime_factory, ingress_name: str, egress_name: str,
                spec: RingSpec) -> None:
    """Persistent worker loop: one replica, one ring pair, chunks until EOF.

    The replica and the ring attachments are built on the warm ping so
    construction cost lands in the worker and a broken factory surfaces
    immediately. Replica state (flow registers, decision caches) persists
    across serves, exactly like a long-lived replica would (whatever the
    factory configures, such as a TCAM compile, also happens worker-side,
    behind the warm ping).

    Protocol (driver -> worker / worker -> driver):

    - ``("warm",)`` -> ``("ok", None)`` | ``("error", traceback)``
    - ``("serve", l2_admit)`` — resets per-serve state, no reply
    - ``("chunk", slot, rows)`` -> ``("chunk_ok", slot, n, seconds)`` |
      ``("chunk_err", slot, traceback)``
    - ``("end",)`` -> ``("done", {seconds, cache_stats, error})``
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
                        runtime = runtime_factory()
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
                    _, l2_admit = msg
                    cache = getattr(runtime, "decision_cache", None)
                    if getattr(cache, "two_level", False):
                        cache.l2_admit = bool(l2_admit)   # per-serve L2 gate
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
                    payload = {
                        "seconds": serve_seconds,
                        "cache_stats": cache.stats if cache is not None
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


def _chunk_cuts(rows: int, step: int):
    """Yield ``(a, b)`` chunk bounds over one shard: fixed ``step``-row
    spans. Cuts never change decisions or cache counters (asserted by the
    serving tests), so the chunk is pure transport geometry."""
    for a in range(0, rows, step):
        yield a, min(a + step, rows)


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
    same serve path and flow pinning, but only the lifecycle (rings,
    workers), ``_execute`` (the ring pump) and the step (one ring chunk of
    ``min(batch_size, ring slot)`` rows) are defined here, so
    ``wall_seconds`` is *measured* concurrent wall clock.
    ``runtime_factory`` runs inside each worker; ``batch_size`` is the rows
    of one chunk, a unit of latency; ``payload_bytes`` (for
    :class:`TwoStageRuntime` replicas) reserves a payload matrix in every
    ingress slot; ``ring_chunk`` caps rows per slot (default:
    ``max(DEFAULT_CHUNK_ROWS, batch_size)``). ``shard_seconds`` and
    ``cache_stats`` are what the workers report with their ``done`` reply.
    """

    in_process = False

    def __init__(self, runtime_factory: Callable[[], Any], n_workers: int = 1,
                 batch_size: int = 256, payload_bytes: int | None = None,
                 start_method: str | None = None, ring_depth: int = 4,
                 ring_chunk: int | None = None):
        if n_workers < 1:
            raise ConfigError("n_workers", n_workers, allowed=">= 1")
        if batch_size < 1:
            raise ConfigError("batch_size", batch_size, allowed=">= 1")
        super().__init__(runtime_factory, n_workers)
        self.batch_size = batch_size
        self.payload_bytes = payload_bytes
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.ring_depth, self.ring_chunk = ring_depth, ring_chunk
        self.ring_stalls = 0
        chunk_rows = ring_chunk
        if chunk_rows is None:
            chunk_rows = max(DEFAULT_CHUNK_ROWS, batch_size)
        # RingSpec validates ring_depth / ring_chunk (>= 1 each).
        self._spec = RingSpec(depth=ring_depth, chunk_rows=chunk_rows,
                              payload_cols=payload_bytes or 0)
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list = []
        self._conns: list = []
        self._segments: RingSegments | None = None

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
                          egress_name, self._spec),
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

    def _step_rows(self) -> int:
        """Rows of one ring chunk, which a worker replays as one step."""
        return min(self.batch_size, self._spec.chunk_rows)

    def _execute(self, trace: Trace, sources: dict, members: list,
                 step: int) -> DecisionBatch:
        """Pump ``step``-row shard chunks through the rings; merge decision
        streams.

        The pump keeps up to ``ring_depth`` chunks in flight per worker
        and scatters every finished egress slot while later chunks are
        still replaying (dispatch/merge overlap). Decisions come back in
        global trace order, exactly as the in-process dispatcher would
        produce them.
        """
        states = []
        for w, (conn, member) in enumerate(zip(self._conns, members)):
            states.append(_WorkerServe(w, conn, member,
                                       _chunk_cuts(len(member), step)))
            conn.send(("serve", self.l2_admit))

        self.ring_stalls = 0
        n = len(sources["ts"])
        merged = alloc_decision_columns(n)
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
        if failures:
            raise WorkerError(failures)

        return DecisionBatch(**merged).take(np.flatnonzero(valid))

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
