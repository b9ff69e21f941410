"""Serial/parallel serving equivalence and the shared-memory ring surfaces.

The contract: :class:`ParallelDispatcher` decisions are bit-identical to
:class:`ShardedDispatcher` with the same shard count — and, when register
capacity does not bind, to unsharded per-packet replay — for any worker
count, ring depth, or chunk size, with or without the flow-decision cache,
including under register-eviction churn; and no shared-memory segment ever
outlives its dispatcher, whatever the close/crash path.
"""

import gc
import multiprocessing
import os

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
from repro.serving.parallel import (ParallelDispatcher, serve_chunk,
                                    worker_main)
from repro.serving.rings import (RingSegments, RingSpec, attach_ring,
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


def _shm_listing():
    """Current /dev/shm segment names (None off Linux-like platforms)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return None


def _trace_sources(trace, labels):
    """Full-trace source columns, as the driver pump builds them."""
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
                n_workers=n_workers,
                batch_size=32) as dispatcher:
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
                n_workers=n_workers,
                batch_size=32) as dispatcher:
            assert list(dispatcher.serve_flows(replay_flows)) == \
                list(serial_ref)

    @pytest.mark.parametrize("capacity", (4, 1_000_000))
    def test_cache_never_changes_parallel_decisions(self, compiled16,
                                                    replay_flows, capacity):
        def serve(cached):
            with ParallelDispatcher(
                    runtime_factory=_factory(compiled16, cached,
                                             capacity=capacity),
                    n_workers=2,
                    batch_size=32) as dispatcher:
                return dispatcher.serve_flows(replay_flows)
        assert list(serve(True)) == list(serve(False))

    def test_replica_state_persists_across_serves(self, compiled16,
                                                  replay_flows):
        """Workers keep register state between serve calls, exactly like the
        serial dispatcher's long-lived replicas."""
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, False), n_shards=2)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, False), n_workers=2,
                batch_size=32) as dispatcher:
            first = dispatcher.serve_flows(replay_flows)
            second = dispatcher.serve_flows(replay_flows)
        assert list(first) == list(serial.serve_flows(replay_flows))
        assert list(second) == list(serial.serve_flows(replay_flows))
        # Warm windows decide from the first packet: more decisions.
        assert len(second) > len(first)


class TestParallelDispatcherMechanics:
    def test_telemetry_populated(self, compiled16, replay_flows):
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, True), n_workers=3,
                batch_size=32) as dispatcher:
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
        """The worker-side chunk replay, driven without a process."""
        trace, labels = flows_to_trace(replay_flows)
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=32).process_trace(trace, labels=labels)
        n = len(trace)
        spec = RingSpec(depth=2, chunk_rows=n)
        segments = RingSegments(1, spec)
        try:
            views = spec.ingress_views(segments.ingress[0].buf, 1, n)
            write_ingress_chunk(views, _trace_sources(trace, labels),
                                np.arange(n))
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=32,
                decision_cache=FlowDecisionCache(1024))
            op, slot, produced, seconds = serve_chunk(
                runtime, spec, segments.ingress[0], segments.egress[0], 1, n)
            assert (op, slot) == ("chunk_ok", 1)
            assert produced == len(ref)
            assert seconds > 0
            out = spec.egress_views(segments.egress[0].buf, 1, produced)
            assert out["seq"].tolist() == [d.seq for d in ref]
            assert out["predicted"].tolist() == [d.predicted for d in ref]
            assert runtime.decision_cache.stats.lookups == len(ref)
        finally:
            segments.close()
        assert _leaked_segments(segments.segment_names) == []

    def test_worker_main_in_process(self, compiled16, replay_flows):
        """The worker loop against a scripted in-process connection.

        The second chunk descriptor names a slot past the ring depth — the
        worker must ack it with ``chunk_err`` and keep serving (the loop
        survives per-chunk failures so the driver can drain the ring).
        """
        trace, labels = flows_to_trace(replay_flows)
        n = len(trace)
        spec = RingSpec(depth=2, chunk_rows=n)
        segments = RingSegments(1, spec)

        class FakeConn:
            def __init__(self, inbox):
                self.inbox = list(inbox)
                self.sent = []
                self.closed = False

            def recv(self):
                return self.inbox.pop(0)

            def send(self, msg):
                self.sent.append(msg)

            def close(self):
                self.closed = True

        try:
            views = spec.ingress_views(segments.ingress[0].buf, 0, n)
            write_ingress_chunk(views, _trace_sources(trace, labels),
                                np.arange(n))
            ingress_name, egress_name = segments.names(0)
            conn = FakeConn([("warm",), ("serve", True),
                             ("chunk", 0, n), ("chunk", 5, n),
                             ("end",), None])
            worker_main(conn, _factory(compiled16, False), ingress_name,
                        egress_name, spec)
            assert conn.closed
            warm, chunk_ok, chunk_err, done = conn.sent
            assert warm == ("ok", None)
            assert chunk_ok[:2] == ("chunk_ok", 0) and chunk_ok[2] > 0
            assert chunk_err[:2] == ("chunk_err", 5)
            assert "ring slot 5 out of range" in chunk_err[2]
            assert done[0] == "done" and done[1]["error"] is None
            assert done[1]["seconds"] > 0
        finally:
            segments.close()
        assert _leaked_segments(segments.segment_names) == []

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

    def test_close_unlinks_segments(self, compiled16):
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        dispatcher.start()
        names = dispatcher.segment_names
        assert len(names) == 4                     # ingress + egress per worker
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

    def test_exit_during_in_flight_error(self, replay_flows):
        """__exit__'s close runs while a serve error is propagating.

        ``object()`` builds fine (so the warm ping — and therefore
        ``__enter__`` — succeeds; the match below excludes the warm-ping
        wording to prove it) but cannot replay a chunk, so the failure
        happens inside the ``with`` body and close() runs from ``__exit__``
        with the RuntimeError in flight.
        """
        dispatcher = ParallelDispatcher(runtime_factory=lambda: object(),
                                        n_workers=2)
        names = []
        with pytest.raises(RuntimeError, match=r"worker 0 failed:(?!.*build)"):
            with dispatcher:
                assert dispatcher.started             # __enter__ succeeded
                names = dispatcher.segment_names
                dispatcher.serve_flows(replay_flows)  # replica can't serve
        assert not dispatcher.started
        assert names and _leaked_segments(names) == []
        dispatcher.close()

    def test_close_with_dead_worker(self, compiled16, replay_flows):
        """A worker killed out from under us must not break close()."""
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        dispatcher.start()
        first_names = dispatcher.segment_names
        dispatcher._workers[0].terminate()
        dispatcher._workers[0].join()
        dispatcher.close()
        assert not dispatcher.started
        assert _leaked_segments(first_names) == []
        # And the dispatcher is still restartable with a cold fleet
        # (fresh segments, also unlinked on the next close).
        assert dispatcher.serve_flows(replay_flows)
        second_names = dispatcher.segment_names
        dispatcher.close()
        assert _leaked_segments(second_names) == []

    def test_gc_backstop_unlinks_segments(self, compiled16):
        """A dispatcher dropped without close() must not leak segments:
        the ``weakref.finalize`` backstop unlinks on garbage collection."""
        dispatcher = ParallelDispatcher(
            runtime_factory=_factory(compiled16, False), n_workers=2)
        dispatcher.start()
        names = dispatcher.segment_names
        assert _leaked_segments(names) == names
        del dispatcher
        gc.collect()
        assert _leaked_segments(names) == []


class TestRingEdges:
    """Wraparound, backpressure, and ordering edges of the ring transport.

    Tiny rings force every edge: slots are reused many times per serve
    (wraparound), the slot capacity is below ``batch_size`` (the slot sets
    the chunk), and with ``ring_depth=1`` the driver provably stalls on a
    full ring (backpressure). Decisions — and the flush/cache counters —
    must stay bit-identical to the serial dispatcher through all of it.
    """

    @pytest.mark.parametrize("ring_depth,ring_chunk",
                             [(1, 8), (2, 8), (1, 4), (3, 16)])
    def test_tiny_rings_bit_identical(self, compiled16, replay_flows,
                                      monkeypatch, ring_depth, ring_chunk):
        # The serial replicas step the workers' chunk rows.
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", ring_chunk)
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, True), n_shards=2)
        ref = serial.serve_flows(replay_flows)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, True), n_workers=2,
                batch_size=32,
                ring_depth=ring_depth, ring_chunk=ring_chunk) as dispatcher:
            got = dispatcher.serve_flows(replay_flows)
            assert list(got) == list(ref)
            # A ring chunk is one register step: the flush accounting is
            # identical to a serial dispatcher stepping the same spans.
            assert dispatcher.flush_stats.total == serial.flush_stats.total
            assert dispatcher.cache_stats.lookups == \
                serial.cache_stats.lookups
            if ring_depth == 1:
                # One slot per worker and several chunks per shard: the
                # driver must have waited on a full ring at least once.
                assert dispatcher.ring_stalls > 0

    def test_unscheduled_fixed_strides(self, compiled16, replay_flows):
        """At the default batch size, shards chunk by ring-slot strides."""
        serial = ShardedDispatcher(
            runtime_factory=_factory(compiled16, False), n_shards=2)
        ref = serial.serve_flows(replay_flows)
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, False), n_workers=2,
                ring_depth=2, ring_chunk=8) as dispatcher:
            assert list(dispatcher.serve_flows(replay_flows)) == list(ref)

    def test_out_of_order_completion_merges_in_order(self, compiled16,
                                                     replay_flows):
        """Four workers drain at different speeds; egress chunks land in
        arbitrary arrival order — the merge still yields global order."""
        with ParallelDispatcher(
                runtime_factory=_factory(compiled16, True), n_workers=4,
                batch_size=8,
                ring_depth=2, ring_chunk=8) as dispatcher:
            decisions = dispatcher.serve_trace(Trace.from_flows(replay_flows))
        assert decisions
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)

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
            batch_size=32,
            start_method="spawn", ring_depth=2, ring_chunk=16)
        with dispatcher:
            got = dispatcher.serve_flows(replay_flows)
            names = dispatcher.segment_names
        assert list(got) == list(ref)
        assert _leaked_segments(names) == []

    def test_differential_ring_geometries(self, compiled16):
        """Tiny-ring parallel serving of a scenario (depth 1 / chunk 8 and
        depth 2 / chunk 16) is bit-identical to the per-packet scalar
        reference."""
        from repro.eval.differential import DEFAULT_CAPACITY, scalar_reference
        from repro.net import build_scenario

        workload = build_scenario("microburst").generate(seed=7,
                                                         flows_scale=0.2)
        ref = scalar_reference(compiled16, "windowed", workload.trace,
                               workload.labels)
        assert ref
        for ring_depth, ring_chunk in ((1, 8), (2, 16)):
            with ParallelDispatcher(
                    runtime_factory=_factory(compiled16, True,
                                             capacity=DEFAULT_CAPACITY),
                    n_workers=2, batch_size=64, ring_depth=ring_depth,
                    ring_chunk=ring_chunk) as dispatcher:
                got = dispatcher.serve_trace(workload.trace,
                                             labels=workload.labels)
            assert list(got) == ref, (ring_depth, ring_chunk)
