"""Serial/parallel serving equivalence and the shared-memory ring surfaces.

The contract: :class:`ParallelDispatcher` decisions are bit-identical to
:class:`ShardedDispatcher` with the same shard count — and, when register
capacity does not bind, to unsharded per-packet replay — for any worker
count, register step, or segment size, with or without the flow-decision
cache, including under register-eviction churn; and no shared-memory
segment ever outlives its dispatcher, whatever the close/crash path.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.dataplane.runtime as runtime_module
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime, flows_to_trace)
from repro.errors import WorkerError
from repro.eval.differential import scalar_replay
from repro.net.traces import Trace, canonicalize_key_columns
from repro.serving import FlowDecisionCache, shard_hash, shard_hash_columns
from repro.serving.dispatcher import ShardedDispatcher
import repro.serving.parallel as parallel_module
import repro.serving.rings as rings_module
from repro.serving.parallel import (ParallelDispatcher, serve_chunk,
                                    worker_main)
from repro.serving.rings import (RingSegments, attach_ring,
                                 write_ingress_chunk)

WORKER_COUNTS = (1, 2, 4)


def _factory(compiled16, cached, capacity=1_000_000):
    def build():
        cache = FlowDecisionCache(capacity=4096) if cached else None
        return WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=32,
            capacity=capacity, decision_cache=cache)
    return build


class _SpawnFactory:
    """Module-level (picklable) replica factory for spawn-started workers."""

    def __init__(self, compiled):
        self.compiled = compiled

    def __call__(self):
        return WindowedClassifierRuntime(self.compiled, feature_mode="stats",
                                         batch_size=32)


def _running(pid):
    """Whether ``pid`` is a live process (a zombie waiting for its reaper
    has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _leaked_segments(names):
    """The subset of segment names still attachable (= leaked)."""
    leaked = []
    for name in names:
        try:
            shm = attach_ring(name)
        except FileNotFoundError:
            continue
        shm.close()
        leaked.append(name)
    return leaked


def _record_segment_names(monkeypatch):
    """Every segment name the dispatchers create from here on (a list that
    fills as they are made)."""
    names = []

    class Recorded(RingSegments):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            names.extend(self.names)

    monkeypatch.setattr(parallel_module, "RingSegments", Recorded)
    return names


def _shm_listing():
    """Current /dev/shm segment names (None off Linux-like platforms)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return None


def _trace_sources(trace, labels):
    """Full-trace source columns, as the driver's shard split builds them."""
    cols = trace.packet_columns()
    return {"ts": cols["ts"], "length": cols["length"],
            **trace.canonical_key_columns(),
            "labels": np.asarray(labels, dtype=np.int64)}


class TestColumnarViews:
    def test_to_from_columns_round_trip(self, replay_flows):
        trace = Trace.from_flows(replay_flows)
        rebuilt = Trace.from_columns(trace.to_columns())
        assert len(rebuilt) == len(trace)
        for orig, back in zip(trace.packets, rebuilt.packets):
            assert (back.ts, back.length, back.key) == \
                (orig.ts, orig.length, orig.key)

    def test_payload_column_round_trip(self, replay_flows):
        trace = Trace.from_flows(replay_flows)
        cols = trace.to_columns(payload_bytes=60)
        assert cols["payload"].shape == (len(trace), 60)
        rebuilt = Trace.from_columns(cols)
        np.testing.assert_array_equal(rebuilt.payload_matrix(60),
                                      trace.payload_matrix(60))

    def test_canonical_key_columns_match_scalar(self, replay_flows):
        trace = Trace.from_flows(replay_flows)
        assert trace.canonical_keys() == \
            [p.key.canonical() for p in trace.packets]

    def test_canonicalize_swaps_consistently(self):
        cols = {"src_ip": np.array([9, 1, 5]), "dst_ip": np.array([2, 8, 5]),
                "src_port": np.array([7, 7, 9]), "dst_port": np.array([3, 3, 4]),
                "proto": np.array([6, 6, 17])}
        canon = canonicalize_key_columns(cols)
        assert canon["src_ip"].tolist() == [2, 1, 5]
        assert canon["src_port"].tolist() == [3, 7, 4]
        assert canon["proto"].tolist() == [6, 6, 17]

    def test_shard_hash_columns_bit_identical(self, replay_flows):
        trace = Trace.from_flows(replay_flows)
        vec = shard_hash_columns(trace.canonical_key_columns())
        assert [int(h) for h in vec] == \
            [shard_hash(k) for k in trace.canonical_keys()]


class TestProcessColumns:
    def test_windowed_columns_match_trace(self, compiled16, replay_flows):
        trace, labels = flows_to_trace(replay_flows)
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=32).process_trace(trace, labels=labels)
        got = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=32).process_columns(
                trace.to_columns(), labels=labels)
        assert list(got) == list(ref)

    def test_two_stage_columns_match_trace(self, replay_flows):
        from repro.core.fuzzy import FuzzyTree
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
        slot_values = [rng.integers(-50, 50, size=(16, 3)) for _ in range(8)]
        trace, labels = flows_to_trace(replay_flows)
        ref = TwoStageRuntime(
            tree, slot_values, n_classes=3, idx_bits=4,
            batch_size=32).process_trace(trace, labels=labels)
        assert ref
        cols = trace.to_columns(payload_bytes=60)
        del cols["length"]
        got = TwoStageRuntime(
            tree, slot_values, n_classes=3, idx_bits=4,
            batch_size=32).process_columns(cols, labels=labels)
        assert list(got) == list(ref)

    def test_missing_columns_rejected(self, compiled16, replay_flows):
        trace, _labels = flows_to_trace(replay_flows)
        runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats")
        with pytest.raises(ValueError, match="missing replay columns"):
            runtime.process_columns({"ts": trace.ts, **trace.key_columns()})
        cols = trace.to_columns()
        del cols["proto"]
        with pytest.raises(ValueError, match=r"missing replay columns: \['proto'\]"):
            runtime.process_columns(cols)


class TestParallelEquivalence:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cached", [False, True])
    def test_bit_identical_to_serial_and_unsharded(self, compiled16,
                                                   replay_flows, n_workers,
                                                   cached):
        scalar_ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), *flows_to_trace(replay_flows))
        assert scalar_ref
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, cached),
            n_shards=n_workers)
        serial_ref = serial.serve_flows(replay_flows)
        assert list(serial_ref) == scalar_ref  # ample capacity: sharding exact
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, cached),
                n_workers=n_workers) as dispatcher:
            got = dispatcher.serve_flows(replay_flows)
        assert list(got) == list(serial_ref)
        if cached:
            assert dispatcher.cache_stats.lookups == len(scalar_ref)
            assert dispatcher.cache_stats.lookups == \
                serial.cache_stats.lookups

    @pytest.mark.parametrize("n_workers", (2, 4))
    @pytest.mark.parametrize("cached", [False, True])
    def test_bit_identical_under_eviction_churn(self, compiled16,
                                                replay_flows, n_workers,
                                                cached):
        """Tiny per-replica register capacity: FIFO eviction churns, the
        parallel decisions still match the serial dispatcher exactly."""
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, cached, capacity=4),
            n_shards=n_workers)
        serial_ref = serial.serve_flows(replay_flows)
        assert sum(rt.state.evictions for rt in serial.runtimes) > 0
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, cached, capacity=4),
                n_workers=n_workers) as dispatcher:
            assert list(dispatcher.serve_flows(replay_flows)) == \
                list(serial_ref)

    @pytest.mark.parametrize("capacity", (4, 1_000_000))
    def test_cache_never_changes_parallel_decisions(self, compiled16,
                                                    replay_flows, capacity):
        def serve(cached):
            with ParallelDispatcher(
                    runtime_factory=_factory(compiled16, cached,
                                             capacity=capacity),
                    n_workers=2) as dispatcher:
                return dispatcher.serve_flows(replay_flows)
        assert list(serve(True)) == list(serve(False))

    def test_replica_state_persists_across_serves(self, compiled16,
                                                  replay_flows):
        """Workers keep register state between serve calls, exactly like the
        serial dispatcher's long-lived replicas."""
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, False), n_shards=2)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, False), n_workers=2) as dispatcher:
            first = dispatcher.serve_flows(replay_flows)
            second = dispatcher.serve_flows(replay_flows)
        assert list(first) == list(serial.serve_flows(replay_flows))
        assert list(second) == list(serial.serve_flows(replay_flows))
        # Warm windows decide from the first packet: more decisions.
        assert len(second) > len(first)


class TestParallelDispatcherMechanics:
    def test_telemetry_populated(self, compiled16, replay_flows):
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, True), n_workers=3) as dispatcher:
            decisions = dispatcher.serve_flows(replay_flows)
            assert decisions
            assert dispatcher.wall_seconds > 0
            assert len(dispatcher.shard_seconds) == 3
            assert dispatcher.flush_stats.total >= 3
            assert dispatcher.cache_stats.lookups == len(decisions)

    def test_serve_trace_without_labels(self, compiled16, replay_flows):
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, False),
                n_workers=2) as dispatcher:
            decisions = dispatcher.serve_trace(Trace.from_flows(replay_flows))
        assert decisions
        assert all(d.flow_label == -1 for d in decisions)
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)

    def test_close_then_serve_restarts_cold(self, compiled16, replay_flows):
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        first = dispatcher.serve_flows(replay_flows)
        dispatcher.close()
        assert not dispatcher.started
        assert list(dispatcher.serve_flows(replay_flows)) == list(first)
        dispatcher.close()
        dispatcher.close()                                     # idempotent

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelDispatcher(runtime_factory=lambda: None, n_workers=0)

    def test_serve_chunk_in_process(self, compiled16, replay_flows):
        """The worker-side shard replay, driven without a process: a shard
        at a nonzero offset of a segment pair reads only its own ingress
        range and writes only the front of its own egress range."""
        trace, labels = flows_to_trace(replay_flows)
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=32).process_trace(trace, labels=labels)
        n, offset = len(trace), 5
        segments = RingSegments(offset + n + 3)
        try:
            write_ingress_chunk(segments.ingress_views(offset, n),
                                _trace_sources(trace, labels), np.arange(n))
            segments.egress_views(0, offset + n + 3)["seq"][:] = -7
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=32,
                decision_cache=FlowDecisionCache(1024))
            produced, seconds = serve_chunk(
                runtime, segments.layout, segments.ingress, segments.egress,
                offset, n)
            assert produced == len(ref)
            assert seconds > 0
            out = {name: col[:produced].tolist() for name, col
                   in segments.egress_views(offset, n).items()}
            assert out["seq"] == [d.seq for d in ref]
            assert out["predicted"] == [d.predicted for d in ref]
            assert runtime.decision_cache.stats.lookups == len(ref)
            # Nothing outside the shard's egress block was written.
            assert (segments.egress_views(0, offset)["seq"] == -7).all()
        finally:
            segments.close()
        assert _leaked_segments(list(segments.names)) == []

    def test_worker_main_in_process(self, compiled16, replay_flows):
        """The worker loop against a scripted in-process connection.

        One reply per serve. The second serve names a range past the end of
        the segments — the worker must reply with the error and keep
        serving (the loop survives a failed serve), and the third serve,
        over a replaced segment pair, re-attaches by the new names.
        """
        trace, labels = flows_to_trace(replay_flows)
        n = len(trace)
        first, second = RingSegments(n), RingSegments(2 * n)

        class FakeConn:
            def __init__(self, inbox):
                self.inbox = list(inbox)
                self.sent = []
                self.closed = False

            def recv(self):
                return self.inbox.pop(0)

            def send(self, msg):
                self.sent.append(pickle.loads(pickle.dumps(msg)))  # a pipe

            def close(self):
                self.closed = True

        try:
            for segments, offset in ((first, 0), (second, n)):
                write_ingress_chunk(segments.ingress_views(offset, n),
                                    _trace_sources(trace, labels),
                                    np.arange(n))
            conn = FakeConn([("warm",), ("serve", first.names, 0, n, True),
                             ("serve", first.names, n, n, True),
                             ("serve", second.names, n, n, False), None])
            worker_main(conn, _factory(compiled16, True))
            assert conn.closed
            warm, ok, failed, again = conn.sent
            assert warm == ("ok", None)
            assert ok[0] == "done" and ok[1]["error"] is None
            assert ok[1]["n"] > 0 and ok[1]["seconds"] > 0
            assert ok[1]["cache_stats"].lookups == ok[1]["n"]
            assert failed[0] == "done" and failed[1]["n"] == 0
            assert "buffer is smaller than requested" in failed[1]["error"]
            assert again[1]["error"] is None and again[1]["n"] > 0
            # The replica kept its registers: the replay of the same
            # packets decides more of them warm.
            assert again[1]["n"] > ok[1]["n"]
            assert second.egress_views(n, n)["seq"][:again[1]["n"]].min() \
                == 0
        finally:
            first.close()
            second.close()
        assert _leaked_segments(list(first.names + second.names)) == []

    def test_worker_failure_surfaces_in_parent(self, compiled16, replay_flows):
        def broken_factory():
            raise RuntimeError("replica build exploded")
        dispatcher = ParallelDispatcher(runtime_factory=broken_factory,
                                        n_workers=2)
        try:
            with pytest.raises(RuntimeError,
                               match="replica build exploded") as exc:
                dispatcher.serve_flows(replay_flows)
        finally:
            dispatcher.close()
        # Typed, and it names the workers that failed (both: same factory).
        assert isinstance(exc.value, WorkerError)
        assert exc.value.workers == (0, 1)
        assert "worker 1 failed to build" in exc.value.failures[1]


class TestCloseLifecycle:
    """close() must be callable unconditionally — the engine relies on it —
    and every shared-memory segment must be unlinked on every exit path."""

    def test_double_close_without_start(self, compiled16):
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        assert dispatcher.segment_names == []      # nothing created yet
        dispatcher.close()
        dispatcher.close()
        assert not dispatcher.started

    def test_close_unlinks_segments(self, compiled16, replay_flows):
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        dispatcher.start()
        assert dispatcher.segment_names == []      # the first serve makes them
        dispatcher.serve_flows(replay_flows)
        names = dispatcher.segment_names
        assert len(names) == 2                     # one ingress, one egress
        assert _leaked_segments(names) == names    # live while started
        dispatcher.close()
        assert dispatcher.segment_names == []
        assert _leaked_segments(names) == []
        dispatcher.close()                         # idempotent after unlink
        assert _leaked_segments(names) == []

    def test_close_after_failed_start(self):
        def broken_factory():
            raise RuntimeError("replica build exploded")
        before = _shm_listing()
        dispatcher = ParallelDispatcher(runtime_factory=broken_factory,
                                        n_workers=2)
        with pytest.raises(RuntimeError, match="replica build exploded"):
            dispatcher.start()
        # start() already tore the fleet down; close stays a safe no-op.
        assert not dispatcher.started
        dispatcher.close()
        dispatcher.close()
        after = _shm_listing()
        if before is not None:
            assert after - before == set()         # no segment survived

    def test_exit_during_in_flight_error(self, replay_flows, monkeypatch):
        """__exit__'s close runs while a serve error is propagating.

        ``object()`` builds fine (so the warm ping — and therefore
        ``__enter__`` — succeeds; the match below excludes the warm-ping
        wording to prove it) but cannot replay a shard, so the failure
        happens inside the ``with`` body and close() runs from ``__exit__``
        with the RuntimeError in flight.
        """
        dispatcher = ParallelDispatcher(runtime_factory=lambda: object(),
                                        n_workers=2)
        names = _record_segment_names(monkeypatch)
        with pytest.raises(RuntimeError, match=r"worker 0 failed:(?!.*build)"):
            with dispatcher:
                assert dispatcher.started             # __enter__ succeeded
                dispatcher.serve_flows(replay_flows)  # replica can't serve
        assert not dispatcher.started
        assert len(names) == 2 and _leaked_segments(names) == []
        dispatcher.close()

    def test_close_with_dead_worker(self, compiled16, replay_flows):
        """A worker killed out from under us fails the next serve with a
        typed error, and must not break close()."""
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        cold = dispatcher.serve_flows(replay_flows)
        first_names = dispatcher.segment_names
        dispatcher._workers[0].terminate()
        dispatcher._workers[0].join()
        with pytest.raises(WorkerError, match="died mid-serve") as exc:
            dispatcher.serve_flows(replay_flows)
        assert exc.value.workers == (0,)
        assert not dispatcher.started              # the serve closed the fleet
        dispatcher.close()
        assert _leaked_segments(first_names) == []
        # And the dispatcher is still restartable with a cold fleet
        # (fresh segments, also unlinked on the next close).
        assert list(dispatcher.serve_flows(replay_flows)) == list(cold)
        second_names = dispatcher.segment_names
        dispatcher.close()
        assert _leaked_segments(second_names) == []

    def test_close_under_a_live_view_keeps_it_mapped(self):
        """A failing serve closes its segments while a traceback still holds
        views of them: the names go, the memory stays mapped until the last
        view dies (a view that did not pin it would segfault on read)."""
        segments = RingSegments(8)
        view = segments.ingress_views(2, 4)["ts"]
        view[:] = 1.5
        segments.close()
        assert _leaked_segments(list(segments.names)) == []
        assert view.sum() == 6.0
        del view

    def test_gc_backstop_unlinks_segments(self, compiled16, replay_flows):
        """A dispatcher dropped without close() must not leak segments:
        the ``weakref.finalize`` backstop unlinks on garbage collection."""
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        dispatcher.serve_flows(replay_flows)
        names = dispatcher.segment_names
        assert _leaked_segments(names) == names
        del dispatcher
        gc.collect()
        assert _leaked_segments(names) == []

    def test_collecting_a_segment_under_a_live_view_is_quiet(self, monkeypatch):
        """The segment object outlives a view that pinned its close, so
        collecting it raises no ``BufferError`` from ``SharedMemory.__del__``;
        the next close releases it once the view is gone."""
        raised = []
        monkeypatch.setattr(sys, "unraisablehook", raised.append)
        segments = RingSegments(8)
        names = list(segments.names)
        view = segments.ingress_views(0, 8)["ts"]
        segments.close()
        del segments
        gc.collect()
        view[:] = 2.0
        assert view.sum() == 16.0
        del view
        RingSegments(1).close()
        gc.collect()
        assert raised == []
        assert rings_module._HELD == []
        assert _leaked_segments(names) == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_workers_exit_when_the_driver_dies(self):
        """A driver killed without close() (os._exit, as after SIGKILL)
        leaves no orphaned worker: each wakes on the driver's death even
        though later workers hold its pipe's parent end."""
        src = Path(parallel_module.__file__).resolve().parents[2]
        script = ("import os\n"
                  "from repro.serving.parallel import ParallelDispatcher\n"
                  "d = ParallelDispatcher(runtime_factory=dict, n_workers=2)\n"
                  "d.start()\n"
                  "print(*[p.pid for p in d._workers], flush=True)\n"
                  "os._exit(0)\n")
        driver = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": str(src)})
        pids = []
        try:
            assert driver.wait(timeout=60) == 0
            pids = [int(pid) for pid in driver.stdout.readline().split()]
            assert len(pids) == 2
            deadline = time.monotonic() + 10
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            if driver.poll() is None:
                driver.kill()
            driver.stdout.close()


class _SlowRuntime(WindowedClassifierRuntime):
    """A replica that stalls its replay in the process named by
    ``slow_pid`` (shared with the forked workers)."""

    slow_pid = None

    def process_columns(self, *args, **kwargs):
        if os.getpid() == self.slow_pid.value:
            time.sleep(0.3)
        return super().process_columns(*args, **kwargs)


class TestRingEdges:
    """Edges of the one-hand-off transport over the shared segments.

    A tiny first serve sizes the segments, so a later serve must replace
    them (and the workers re-attach by the new names) while a smaller one
    reuses them; replies arrive in whatever order the workers finish.
    Decisions — and the flush/cache counters — must stay bit-identical to
    the serial dispatcher through all of it.
    """

    @pytest.mark.parametrize("n_workers,first_rows",
                             [(1, 4), (1, 8), (2, 8), (3, 16)])
    def test_tiny_rings_bit_identical(self, compiled16, replay_flows,
                                      n_workers, first_rows):
        trace, labels = flows_to_trace(replay_flows)
        head = np.arange(first_rows)
        serves = [(trace.take(head), labels[head]), (trace, labels),
                  (trace.take(head), labels[head])]
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, True), n_shards=n_workers)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, True),
                n_workers=n_workers) as dispatcher:
            names = []
            for serve_trace, serve_labels in serves:
                ref = serial.serve_trace(serve_trace, labels=serve_labels)
                got = dispatcher.serve_trace(serve_trace, labels=serve_labels)
                assert list(got) == list(ref)
                assert dispatcher.flush_stats.total == \
                    serial.flush_stats.total
                assert dispatcher.cache_stats.lookups == \
                    serial.cache_stats.lookups
                names.append(dispatcher.segment_names)
        # Replaced once to fit the whole trace, then reused for the tail.
        assert names[0] != names[1] == names[2]

    def test_unscheduled_fixed_strides(self, compiled16, replay_flows,
                                       monkeypatch):
        """Workers step registers in ``REGISTER_STEP_ROWS`` spans like the
        in-process replicas, whatever the replica's own batch size: one
        rule counts the flushes of both."""
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", 8)
        trace, labels = flows_to_trace(replay_flows)
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, False), n_shards=2)
        ref = serial.serve_trace(trace, labels=labels)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, False),
                n_workers=2) as dispatcher:
            got = dispatcher.serve_trace(trace, labels=labels)
        assert list(got) == list(ref)
        sizes = np.bincount((shard_hash_columns(trace.canonical_key_columns())
                             % np.uint64(2)).astype(np.int64), minlength=2)
        assert dispatcher.flush_stats.total == serial.flush_stats.total == \
            sum(-(-int(m) // 8) for m in sizes)

    def test_out_of_order_completion_merges_in_order(self, compiled16,
                                                     replay_flows,
                                                     monkeypatch):
        """Worker 0 is slowed, so its reply arrives last; the merge still
        yields the serial dispatcher's decisions in global trace order."""
        slow_pid = multiprocessing.Value("i", 0)

        def build():
            runtime = _SlowRuntime(compiled16, feature_mode="stats",
                                   decision_cache=FlowDecisionCache(4096))
            runtime.slow_pid = slow_pid
            return runtime

        merged_shards = []
        scatter = parallel_module.scatter_decision_chunk

        def recording_scatter(merged, valid, gseq, views, rows):
            merged_shards.append(gseq.copy())
            scatter(merged, valid, gseq, views, rows)

        monkeypatch.setattr(parallel_module, "scatter_decision_chunk",
                            recording_scatter)
        trace, labels = flows_to_trace(replay_flows)
        ref = ShardedDispatcher(runtime_factory=_factory(compiled16, True),
                                n_shards=4).serve_trace(trace, labels=labels)
        with ParallelDispatcher(runtime_factory=build,
                                n_workers=4) as dispatcher:
            slow_pid.value = dispatcher._workers[0].pid
            decisions = dispatcher.serve_trace(trace, labels=labels)
        assert list(decisions) == list(ref)
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)
        shard_ids = shard_hash_columns(trace.canonical_key_columns()) \
            % np.uint64(4)
        assert len(merged_shards) == 4
        assert (shard_ids[merged_shards[-1]] == 0).all()   # worker 0 last
        assert not (shard_ids[merged_shards[0]] == 0).any()

    def test_spawn_start_method_smoke(self, compiled16, replay_flows):
        """The shm path is start-method agnostic: segments travel by name,
        so spawn-started workers (picklable factory) serve identically."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, False), n_shards=2)
        ref = serial.serve_flows(replay_flows)
        dispatcher = ParallelDispatcher(
            runtime_factory=_SpawnFactory(compiled16), n_workers=2,
            start_method="spawn")
        with dispatcher:
            got = dispatcher.serve_flows(replay_flows)
            names = dispatcher.segment_names
        assert list(got) == list(ref)
        assert _leaked_segments(names) == []

    def test_differential_ring_geometries(self, compiled16):
        """A scenario served over one, two and three shard ranges per
        segment is bit-identical to the per-packet scalar reference."""
        from repro.eval.differential import DEFAULT_CAPACITY, scalar_reference
        from repro.net import build_scenario

        workload = build_scenario("microburst").generate(seed=7,
                                                         flows_scale=0.2)
        ref = scalar_reference(compiled16, "windowed", workload.trace,
                               workload.labels)
        assert ref
        for n_workers in (1, 2, 3):
            with ParallelDispatcher(
                    runtime_factory=_factory(compiled16, True,
                                             capacity=DEFAULT_CAPACITY),
                    n_workers=n_workers) as dispatcher:
                got = dispatcher.serve_trace(workload.trace,
                                             labels=workload.labels)
            assert list(got) == ref, n_workers


class TestMidServeFailure:
    """A driver-side error after the first hand-off leaves replies
    outstanding: the serve must close the fleet, raise the original error,
    leave no segment behind, and the next serve must decide exactly like a
    cold dispatcher's first."""

    @pytest.mark.parametrize("step", ["scatter_decision_chunk",
                                      "write_ingress_chunk"])
    def test_error_on_second_shard_closes_fleet(self, compiled16,
                                                replay_flows, monkeypatch,
                                                step):
        calls = []
        original = getattr(parallel_module, step)

        def second_call_raises(*args):
            calls.append(step)
            if len(calls) == 2:
                raise RuntimeError(f"injected {step} failure")
            return original(*args)

        with ParallelDispatcher(runtime_factory=_factory(compiled16, True),
                                n_workers=2) as cold:
            want = cold.serve_flows(replay_flows)
        names = _record_segment_names(monkeypatch)
        monkeypatch.setattr(parallel_module, step, second_call_raises)
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, True), n_workers=2)
        try:
            with pytest.raises(RuntimeError, match="injected") as exc:
                dispatcher.serve_flows(replay_flows)
            assert not isinstance(exc.value, WorkerError)
            assert not dispatcher.started
            assert len(names) == 2 and _leaked_segments(names) == []
            got = dispatcher.serve_flows(replay_flows)   # third call passes
            assert len(names) == 4
        finally:
            dispatcher.close()
        assert list(got) == list(want)
        assert _leaked_segments(names) == []


_FRESH_PROCESS_SERVE = """
import numpy as np
from repro.errors import WorkerError
from repro.net.traces import Trace
from repro.serving import ParallelDispatcher

n = 16
cols = {"ts": np.arange(n, dtype=np.float64), "length": np.full(n, 60),
        "src_ip": np.arange(n), "dst_ip": np.full(n, 7),
        "src_port": np.full(n, 80), "dst_port": np.full(n, 443),
        "proto": np.full(n, 6)}
dispatcher = ParallelDispatcher(runtime_factory=object, n_workers=2,
                                start_method="fork")
try:
    dispatcher.serve_trace(Trace.from_columns(cols))
except WorkerError:
    pass                    # the replica cannot replay; the attach happened
dispatcher.close()
"""


def test_first_fleet_of_a_process_leaves_no_tracker_registration():
    """A fresh process forks its workers before its first serve creates the
    segments, so each worker starts a ``resource_tracker`` of its own on
    its first attach; a registration left there is "leaked" (and unlinked)
    by that tracker when the worker exits."""
    import subprocess
    import sys
    from pathlib import Path

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS_SERVE],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert "leaked shared_memory" not in done.stderr, done.stderr
