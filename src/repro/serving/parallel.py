"""Parallel multi-process serving over shared memory.

:class:`~repro.serving.ShardedDispatcher` replays its replicas *serially*
and models parallel wall clock as ``max(shard_seconds)``;
:class:`ParallelDispatcher` is the same dispatcher with a process transport
that makes that wall clock real. Each of ``n_workers`` persistent
``multiprocessing`` workers owns one runtime replica (built from
``runtime_factory`` inside the worker). The fleet shares one ingress and
one egress segment (:mod:`repro.serving.rings`), where each shard owns a
contiguous row range, and a serve is **one hand-off per worker**:

- the driver gathers a shard's packets **directly into its ingress range**
  as columnar NumPy views (``np.take`` into the mapped segment — no
  intermediate arrays, nothing pickled) and sends the worker
  ``("serve", names, offset, rows, l2_admit)`` before it gathers the next
  shard, so workers start while the driver is still writing;
- the worker replays its range **in place** in ``REGISTER_STEP_ROWS``
  register steps, exactly like an in-process replica, writes its decision
  stream into its egress range and replies once with
  ``("done", {n, seconds, cache_stats, error})``;
- the driver scatters each reply's decisions into trace order as it
  arrives.

The shard split and the flush accounting are the base class's, so for any
worker count the decisions (and cache and flush counters) are
**bit-identical** to ``ShardedDispatcher`` with ``n_shards == n_workers`` —
asserted by ``tests/test_serving_parallel.py`` and the differential harness
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
    ) as dispatcher:
        decisions = dispatcher.serve_flows(test_flows)
        pps = len(decisions) / dispatcher.wall_seconds

Workers default to the ``fork`` start method (the factory closure —
typically capturing a compiled model — is inherited, never pickled); on
platforms without ``fork`` the dispatcher falls back to ``spawn``, which
requires a picklable factory. Replica state (flow registers, decision
caches) lives in the workers: it persists across ``serve_*`` calls and is
discarded by ``close()``, which also unlinks both shared-memory segments.
A serve that fails after its first hand-off closes the fleet, so the next
serve starts from a cold one.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable

import numpy as np

from repro.dataplane import runtime as dataplane_runtime
from repro.dataplane.decisions import DecisionBatch, alloc_decision_columns
from repro.dataplane.schema import DECISION_COLUMNS
from repro.errors import ConfigError, WorkerError
from repro.net.traces import Trace
from repro.serving.cache import CacheStats

# shard_hash_columns is re-exported: the flow-pinning hash was importable
# from here before the split moved to the base class, and perf/ looks it up.
from repro.serving.dispatcher import ShardedDispatcher, shard_hash_columns  # noqa: F401
from repro.serving.rings import (
    EGRESS_LAYOUT,
    RingSegments,
    attach_ring,
    block_views,
    ingress_layout,
    scatter_decision_chunk,
    tracker_inherited,
    write_egress_chunk,
    write_ingress_chunk,
)


def serve_chunk(runtime, layout, ingress, egress, offset: int, rows: int) -> tuple[int, float]:
    """Replay one shard's ingress range in place; write its egress range.

    Runs inside a worker process (also directly callable in-process, which
    the unit tests use). Builds column views over rows ``[offset, offset +
    rows)`` of the ingress segment (schema-typed by construction), replays
    them in ``REGISTER_STEP_ROWS`` register steps, validates the replica's
    decisions against the decision schema — the egress store below would
    silently cast a drifted column — and stores them at the front of the
    shard's egress range. Returns ``(n_decisions, replay seconds)``.
    """
    views = block_views(layout, ingress.buf, offset, rows)
    started = time.perf_counter()
    decisions = runtime.process_columns(
        views, labels=views["labels"], batch_size=dataplane_runtime.REGISTER_STEP_ROWS
    )
    seconds = time.perf_counter() - started
    DECISION_COLUMNS.validate_columns(
        decisions.columns(), context=f"worker shard decisions (rows {offset}+{rows})"
    )
    out = block_views(EGRESS_LAYOUT, egress.buf, offset, rows)
    return write_egress_chunk(out, decisions), seconds


def _detach(segments: list) -> None:
    for shm in segments:
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - live view
            pass


def worker_main(conn, runtime_factory, payload_cols: int = 0) -> None:
    """Persistent worker loop: one replica, one serve per message, until EOF
    or the driver's death.

    The replica is built on the warm ping so construction cost lands in the
    worker and a broken factory surfaces immediately. Replica state (flow
    registers, decision caches) persists across serves, exactly like a
    long-lived replica would (whatever the factory configures, such as a
    TCAM compile, also happens worker-side, behind the warm ping). The
    worker attaches the segments a serve names, and re-attaches when the
    driver replaced them.

    Protocol (driver -> worker / worker -> driver):

    - ``("warm",)`` -> ``("ok", None)`` | ``("error", traceback)``
    - ``("serve", names, offset, rows, l2_admit)`` ->
      ``("done", {n, seconds, cache_stats, error})``
    - ``None`` — shut down

    A failed serve never kills the loop: the reply carries the traceback in
    ``error`` and the driver raises it as a :class:`WorkerError`.
    """
    runtime = None
    layout = ingress_layout(payload_cols)
    inherited = tracker_inherited()  # before an attach can start one
    names, segments = None, []
    # A forked worker holds copies of its own pipe's parent end (and of every
    # earlier worker's), so the driver's death never reaches recv() as EOF.
    # Its sentinel does: the last worker wakes at once, and each exit frees
    # the copies an earlier worker's sentinel waits on.
    driver = multiprocessing.parent_process()
    try:
        while True:
            if driver is not None and conn not in _wait_ready([conn, driver.sentinel]):
                break  # the driver died without a shutdown message
            msg = conn.recv()
            if msg is None:
                break
            if msg[0] == "warm":
                try:
                    if runtime is None:
                        runtime = runtime_factory()
                    conn.send(("ok", None))
                except Exception:
                    conn.send(("error", traceback.format_exc()))
                continue
            _, serve_names, offset, rows, l2_admit = msg
            try:
                if serve_names != names:
                    _detach(segments)
                    names, segments = None, []  # stays detached if attach fails
                    segments = [attach_ring(name, inherited) for name in serve_names]
                    names = serve_names
                cache = getattr(runtime, "decision_cache", None)
                if getattr(cache, "two_level", False):
                    cache.l2_admit = bool(l2_admit)  # per-serve L2 gate
                n, seconds = serve_chunk(runtime, layout, *segments, offset, rows)
                reply = {
                    "n": n,
                    "seconds": seconds,
                    "cache_stats": cache.stats if cache is not None else None,
                    "error": None,
                }
            except Exception:
                reply = {
                    "n": 0,
                    "seconds": 0.0,
                    "cache_stats": None,
                    "error": traceback.format_exc(),
                }
            conn.send(("done", reply))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    finally:
        _detach(segments)
        conn.close()


def _merge_shard(segments, offset: int, member, produced: int, merged, valid) -> None:
    """Scatter a shard's ``produced`` decisions from its egress range into
    trace order. The views die with this call, so a failure later in the
    serve closes no segment under a live view."""
    views = segments.egress_views(offset, len(member))
    scatter_decision_chunk(merged, valid, member[views["seq"][:produced]], views, produced)


class ParallelDispatcher(ShardedDispatcher):
    """Serve traces across ``n_workers`` concurrent runtime replicas.

    :class:`~repro.serving.ShardedDispatcher` with a process transport:
    same serve path, flow pinning and register step, but only the lifecycle
    (workers, segments) and ``_execute`` (one hand-off per worker) are
    defined here, so ``wall_seconds`` is *measured* concurrent wall clock.
    ``runtime_factory`` runs inside each worker; ``payload_bytes`` (for
    :class:`TwoStageRuntime` replicas) reserves a payload matrix in every
    ingress row. ``shard_seconds`` and ``cache_stats`` are what the workers
    report with their ``done`` replies.
    """

    in_process = False

    def __init__(
        self,
        runtime_factory: Callable[[], Any],
        n_workers: int = 1,
        payload_bytes: int | None = None,
        start_method: str | None = None,
    ):
        if n_workers < 1:
            raise ConfigError("n_workers", n_workers, allowed=">= 1")
        super().__init__(runtime_factory, n_workers)
        self.payload_bytes = payload_bytes
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
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
        return list(self._segments.names) if self._segments else []

    def start(self) -> None:
        """Fork the workers and build their replicas.

        No-op when already running. Replica construction happens behind a
        warm-up ping, so ``wall_seconds`` of the first serve measures
        serving — not ``runtime_factory`` — and a broken factory surfaces
        immediately. The segments are created by the first serve, sized to
        it; workers attach them by the names each serve carries, so the
        same path serves ``fork`` and ``spawn`` workers.
        """
        if self._workers:
            return
        self.cache_stats = CacheStats()  # cold fleet, zero lifetime
        try:
            for _ in range(self.n_workers):
                parent_conn, child_conn = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(child_conn, self.runtime_factory, self.payload_bytes or 0),
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
                    failures[w] = f"worker {w} failed to build its replica:\n{reply}"
            if failures:
                raise WorkerError(failures)
        except BaseException:
            # A partially started fleet (spawn error, failed warm ping,
            # interrupt) must never leak processes or pipes: tear down
            # whatever came up, then surface the original error.
            self.close()
            raise

    def close(self) -> None:
        """Shut workers down, unlink the segments, discard replica state.

        Idempotent and exception-safe: callable any number of times, after
        a failed :meth:`start`, and from ``__exit__`` while a serve error
        is propagating — dead workers and broken pipes are tolerated,
        every shared-memory segment is unlinked regardless, and the
        dispatcher is always left restartable (a later serve forks a fresh
        cold fleet). The engine's lifecycle relies on being able to call
        this unconditionally.
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
                pass  # never-started / already-reaped process
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if segments is not None:
            # Unlink only after every worker is down: attached views keep
            # the memory alive until then, but the /dev/shm name must go.
            segments.close()

    def _segments_for(self, rows: int) -> RingSegments:
        """The fleet's segments, replaced only when ``rows`` do not fit
        (at least doubling, so growing serves replace them rarely)."""
        old = self._segments
        if old is None or old.rows < rows:
            self._segments = None
            if old is not None:
                old.close()  # workers re-attach by the new names
                rows = max(rows, 2 * old.rows)
            self._segments = RingSegments(rows, self.payload_bytes or 0)
        return self._segments

    def _execute(self, trace: Trace, sources: dict, members: list, step: int) -> DecisionBatch:
        """Hand each worker its whole shard; merge the replies as they come.

        Decisions come back in global trace order, exactly as the
        in-process dispatcher would produce them. Anything that escapes
        after a hand-off — a worker failure, or an error on the driver side
        with replies outstanding — closes the fleet before it propagates,
        so no segment outlives it and the next serve starts cold.
        """
        n = len(sources["ts"])
        merged = alloc_decision_columns(n)
        valid = np.zeros(n, dtype=np.bool_)
        offsets = np.cumsum([0] + [len(m) for m in members]).tolist()
        failures: dict[int, str] = {}  # worker -> its report
        pending: dict = {}  # conn -> worker, replies outstanding
        try:
            segments = self._segments_for(n)
            for w, (conn, member) in enumerate(zip(self._conns, members)):
                rows = len(member)
                write_ingress_chunk(segments.ingress_views(offsets[w], rows), sources, member)
                try:
                    conn.send(("serve", segments.names, offsets[w], rows, self.l2_admit))
                except (BrokenPipeError, OSError):
                    failures[w] = f"worker {w} failed:\nworker process died mid-serve (broken pipe)"
                    continue
                pending[conn] = w
            while pending:
                for conn in _wait_ready(list(pending)):
                    w = pending.pop(conn)
                    try:
                        _, reply = conn.recv()
                    except (EOFError, OSError):
                        failures[w] = f"worker {w} failed:\nworker process died mid-serve"
                        continue
                    if reply["error"]:
                        failures[w] = f"worker {w} failed:\n{reply['error']}"
                        continue
                    if reply["n"]:
                        _merge_shard(segments, offsets[w], members[w], reply["n"], merged, valid)
                    self.shard_seconds[w] = reply["seconds"]
                    if reply["cache_stats"] is not None:
                        self.cache_stats.merge(reply["cache_stats"])
            if failures:
                raise WorkerError(failures)
        except BaseException:
            self.close()
            raise
        return DecisionBatch(**merged).take(np.flatnonzero(valid))
