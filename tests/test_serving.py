"""Tests for the serving layer: batch cuts, sharded dispatch, decision cache."""

import numpy as np
import pytest

import repro.dataplane.runtime as runtime_module
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime, flows_to_trace)
from repro.dataplane.decisions import PacketDecision
from repro.dataplane.schema import DECISION_COLUMNS
from repro.errors import ConfigError, SchemaError
from repro.eval.differential import (build_two_stage_spec, scalar_reference,
                                     scalar_replay)
from repro.net import build_scenario
from repro.net.packet import FlowKey, Packet
from repro.net.traces import Trace
from repro.serving import (EngineConfig, FlowDecisionCache,
                           ParallelDispatcher, PegasusEngine, shard_hash,
                           shard_hash_columns)
from repro.serving.dispatcher import (ShardedDispatcher,   # un-deprecated core
                                      flush_counts)

BATCH = 32
# The register step the flush tests patch in: not BATCH, so a replay that
# still cut at batch_size would miscount.
STEP = 16

# name -> (topology, replicas): every shape a serve can take.
FLUSH_TOPOLOGIES = {
    "local": ("local", 1),
    "sharded3": ("sharded", 3),
    "parallel1": ("parallel", 1),
    "parallel2": ("parallel", 2),
}


class TestBatchCuts:
    """Every replay, in process or in a worker, cuts fixed
    ``REGISTER_STEP_ROWS`` register steps, and one rule counts them:
    ``flush_counts(rows, step)`` per shard."""

    @pytest.mark.parametrize("rows,batch,full,tail", [
        (100, 32, 3, 1), (30, 10, 3, 0), (5, 10, 0, 1), (0, 8, 0, 0)])
    def test_flush_counts(self, rows, batch, full, tail):
        stats = flush_counts(rows, batch)
        assert (stats.full, stats.tail) == (full, tail)
        assert stats.total == -(-rows // batch)

    @pytest.mark.parametrize("wiring", ["engine", "hand"])
    @pytest.mark.parametrize("shape", list(FLUSH_TOPOLOGIES))
    def test_flush_accounting_is_one_rule(self, compiled16, replay_flows,
                                          monkeypatch, shape, wiring):
        """Engine-built and hand-wired dispatchers count the same flushes —
        one per register step of every shard — and decide exactly what the
        per-packet reference does."""
        topology, replicas = FLUSH_TOPOLOGIES[shape]
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", STEP)
        trace, labels = flows_to_trace(replay_flows)
        if wiring == "engine":
            config = EngineConfig(feature_mode="stats", batch_size=BATCH,
                                  topology=topology, n_workers=replicas)
            engine = PegasusEngine.from_compiled(compiled16, config)
            with engine:
                report = engine.serve(trace, labels=labels)
            decisions, flushes = report.decisions, report.flush_stats
        else:
            def factory():
                return WindowedClassifierRuntime(compiled16,
                                                 feature_mode="stats")
            dispatcher = (
                ParallelDispatcher(factory, n_workers=replicas)
                if topology == "parallel" else
                ShardedDispatcher(factory, n_shards=replicas))
            with dispatcher:
                decisions = dispatcher.serve_trace(trace, labels=labels)
            flushes = dispatcher.flush_stats
        shard_ids = shard_hash_columns(trace.canonical_key_columns()) \
            % np.uint64(replicas)
        sizes = np.bincount(shard_ids.astype(np.int64), minlength=replicas)
        assert flushes.total == sum(-(-int(m) // STEP) for m in sizes)
        assert flushes.total > replicas
        assert list(decisions) == scalar_reference(compiled16, "windowed",
                                                   trace, labels)


class TestNoDecisionObjectsOnServePath:
    """The serve path hands decisions on as columns: no runtime replay,
    dispatcher merge, worker hand-off or engine step builds a
    ``PacketDecision`` — in this process or in a forked worker. Reading the
    report builds them."""

    @pytest.fixture
    def init_calls(self, monkeypatch):
        import multiprocessing
        calls = multiprocessing.Value("i", 0)    # shared with forked workers
        original = PacketDecision.__init__

        def counting_init(self, *args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(PacketDecision, "__init__", counting_init)
        return calls

    @pytest.mark.parametrize("shape", ["local", "sharded2", "parallel2",
                                       "scenario", "open"])
    def test_serve_builds_no_packet_decisions(self, compiled16, init_calls,
                                              shape):
        w = build_scenario("heavy_hitters").generate(seed=3, flows_scale=0.2)
        topology, n_workers = {"sharded2": ("sharded", 2),
                               "parallel2": ("parallel", 2)}.get(
                                   shape, ("local", 1))
        config = EngineConfig(feature_mode="stats", batch_size=BATCH,
                              topology=topology, n_workers=n_workers)
        with PegasusEngine.from_compiled(compiled16, config) as engine:
            if shape == "scenario":
                decisions = engine.serve(w).overall.decisions
            elif shape == "open":
                decisions = engine.serve(w, mode="open").serving.decisions
            else:
                decisions = engine.serve(w.trace, labels=w.labels).decisions
        assert init_calls.value == 0
        assert len(decisions) > 0
        DECISION_COLUMNS.validate_columns(decisions.columns())
        assert list(decisions) == scalar_reference(compiled16, "windowed",
                                                   w.trace, w.labels)


class TestShardedDispatcher:
    def _dispatcher(self, compiled16, n_shards):
        return ShardedDispatcher(
            runtime_factory=lambda: WindowedClassifierRuntime(
                compiled16, feature_mode="stats"),
            n_shards=n_shards)

    def test_sharded_matches_unsharded(self, compiled16, replay_flows):
        """Shard counts that do not divide the 24-flow workload stay exact."""
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), *flows_to_trace(replay_flows))
        assert ref
        for n_shards in (1, 5, 7):
            assert len(replay_flows) % n_shards != 0 or n_shards == 1
            got = self._dispatcher(compiled16, n_shards).serve_flows(replay_flows)
            assert list(got) == ref

    def test_flows_pinned_to_one_shard(self, compiled16, replay_flows):
        disp = self._dispatcher(compiled16, 4)
        trace = Trace.from_flows(replay_flows)
        shard_of_key = {}
        for key in trace.canonical_keys():
            shard = disp.shard_of(key)
            assert shard_of_key.setdefault(key, shard) == shard
        # A sane hash spreads 24 flows over more than one replica.
        assert len(set(shard_of_key.values())) > 1

    def test_serve_trace_without_labels(self, compiled16, replay_flows):
        disp = self._dispatcher(compiled16, 2)
        decisions = disp.serve_trace(Trace.from_flows(replay_flows))
        assert decisions
        assert all(d.flow_label == -1 for d in decisions)
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)

    def test_shard_hash_deterministic(self):
        key = FlowKey(0x0A000001, 0x0A000002, 443, 51234, 6)
        assert shard_hash(key) == shard_hash(FlowKey(*key))
        assert shard_hash(key) != shard_hash(key.reversed())

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            ShardedDispatcher(runtime_factory=lambda: None, n_shards=0)

    def test_invalid_batch_size(self):
        """``batch_size`` is the engine's open-loop drain cap, validated by
        the config; no dispatcher takes one."""
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)
        with pytest.raises(TypeError, match="batch_size"):
            ParallelDispatcher(runtime_factory=lambda: None, batch_size=32)


class TestReplayLabels:
    """``labels`` of the wrong length are a ConfigError raised before any
    flow state changes, in both runtimes and both dispatchers: a valid
    replay afterwards decides exactly like a fresh replica's."""

    @pytest.fixture(scope="class")
    def hitters(self):
        w = build_scenario("heavy_hitters").generate(seed=0, flows_scale=0.3)
        return w.trace, w.labels

    @staticmethod
    def _bad(labels, length):
        return labels[:-5] if length == "short" \
            else np.concatenate([labels, labels[:2]])

    @pytest.mark.parametrize("length", ["short", "long"])
    @pytest.mark.parametrize("entry", ["trace", "columns"])
    @pytest.mark.parametrize("kind", ["windowed", "two_stage"])
    def test_runtime_rejects_before_replay(self, compiled16, hitters, kind,
                                           entry, length):
        trace, labels = hitters

        def make():
            if kind == "windowed":
                return WindowedClassifierRuntime(
                    compiled16, feature_mode="stats", capacity=4096,
                    batch_size=BATCH)
            return TwoStageRuntime(capacity=4096, batch_size=BATCH,
                                   **build_two_stage_spec())

        def replay(runtime, labels):
            if entry == "trace":
                return runtime.process_trace(trace, labels=labels)
            return runtime.process_columns(
                trace.to_columns(payload_bytes=60), labels=labels)

        runtime = make()
        with pytest.raises(ConfigError) as exc:
            replay(runtime, self._bad(labels, length))
        assert exc.value.field == "labels"
        assert not runtime.state.columns["count"].any()   # nothing replayed
        got = replay(runtime, labels)
        assert len(got) > 0
        assert list(got) == list(replay(make(), labels))

    @pytest.mark.parametrize("length", ["short", "long"])
    @pytest.mark.parametrize("shape", ["sharded1", "sharded2", "parallel2"])
    def test_dispatcher_rejects_before_replay(self, compiled16, hitters,
                                              shape, length):
        trace, labels = hitters

        def make():
            def factory():
                return WindowedClassifierRuntime(
                    compiled16, feature_mode="stats", capacity=4096)
            if shape == "parallel2":
                return ParallelDispatcher(runtime_factory=factory,
                                          n_workers=2)
            return ShardedDispatcher(runtime_factory=factory,
                                     n_shards=int(shape[-1]))

        with make() as dispatcher, make() as fresh:
            with pytest.raises(ConfigError) as exc:
                dispatcher.serve_trace(trace,
                                       labels=self._bad(labels, length))
            assert exc.value.field == "labels"
            got = dispatcher.serve_trace(trace, labels=labels)
            assert len(got) > 0
            assert list(got) == list(fresh.serve_trace(trace, labels=labels))


class TestMisalignedColumns:
    """Columns of different lengths are a SchemaError naming the column and
    both lengths, raised before any flow state changes: a valid replay
    afterwards decides exactly like a fresh replica's."""

    @pytest.fixture(scope="class")
    def hitters(self):
        w = build_scenario("heavy_hitters").generate(seed=0, flows_scale=0.3)
        return w.trace, w.labels

    @staticmethod
    def _cut(cols):
        bad = dict(cols)
        bad["length"] = bad["length"][:-3]
        return bad

    def test_from_columns_rejects(self, hitters):
        trace, _labels = hitters
        with pytest.raises(SchemaError) as exc:
            Trace.from_columns(self._cut(trace.to_columns()))
        assert exc.value.column == "length"
        assert f"{len(trace) - 3} rows" in exc.value.reason
        assert f"has {len(trace)}" in exc.value.reason

    @pytest.mark.parametrize("kind", ["windowed", "two_stage"])
    def test_runtime_rejects_before_replay(self, compiled16, hitters, kind):
        trace, labels = hitters
        cols = trace.to_columns(payload_bytes=60)

        def make():
            if kind == "windowed":
                return WindowedClassifierRuntime(
                    compiled16, feature_mode="stats", capacity=4096,
                    batch_size=BATCH)
            return TwoStageRuntime(capacity=4096, batch_size=BATCH,
                                   **build_two_stage_spec())

        runtime = make()
        with pytest.raises(SchemaError, match="length"):
            runtime.process_columns(self._cut(cols), labels=labels)
        assert not runtime.state.columns["count"].any()   # nothing replayed
        got = runtime.process_columns(cols, labels=labels)
        assert len(got) > 0
        assert list(got) == list(make().process_columns(cols, labels=labels))

    @pytest.mark.parametrize("topology", ["local", "sharded"])
    def test_engine_serve_rejects_before_replay(self, compiled16, hitters,
                                                topology):
        trace, labels = hitters
        cols = trace.to_columns()

        def make():
            return PegasusEngine.from_compiled(compiled16, EngineConfig(
                feature_mode="stats", batch_size=BATCH, capacity=4096,
                topology=topology, n_workers=1 if topology == "local" else 2))

        with make() as engine, make() as fresh:
            with pytest.raises(SchemaError, match="length"):
                engine.serve(self._cut(cols), labels=labels)
            got = engine.serve(cols, labels=labels).decisions
            assert len(got) > 0
            assert list(got) == \
                list(fresh.serve(cols, labels=labels).decisions)


def constant_rate_flow(n_packets=60, length=200, ipd=0.001, port=40000, ts0=0.0):
    """One flow whose every window repeats: the elephant the cache targets."""
    key = FlowKey(0x0A000001, 0x0A000002, port, 443, 6)
    return Trace([Packet(ts=ts0 + i * ipd, length=length, key=key)
                  for i in range(n_packets)])


class TestFlowDecisionCache:
    def test_lru_eviction_order(self):
        cache = FlowDecisionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_hit_miss_stats_and_rate(self):
        cache = FlowDecisionCache(capacity=8)
        assert cache.stats.hit_rate == 0.0
        assert cache.get("x") is None
        cache.put("x", 7)
        assert cache.get("x") == 7
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.hit_rate == 0.5

    def test_put_existing_refreshes(self):
        cache = FlowDecisionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 9)               # refresh, not insert: no eviction
        cache.put("c", 3)               # evicts "b", the LRU
        assert cache.get("a") == 9
        assert cache.get("b") is None
        assert cache.stats.evictions == 1

    def test_clear_keeps_counters(self):
        cache = FlowDecisionCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlowDecisionCache(capacity=0)

    def test_cache_never_changes_decisions(self, compiled16, replay_flows):
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats").process_flows(replay_flows)
        cache = FlowDecisionCache(capacity=4096)
        got = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            decision_cache=cache).process_flows(replay_flows)
        assert list(got) == list(ref)
        assert cache.stats.lookups == len(ref)

    def test_elephant_flow_hits(self, compiled16):
        """A constant-rate flow repeats its window: all but one lookup hit."""
        trace = constant_rate_flow(n_packets=60)
        cache = FlowDecisionCache(capacity=64)
        runtime = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=16,
            decision_cache=cache)
        decisions = runtime.process_trace(trace)
        assert len(decisions) == 60 - (runtime.window - 1)
        # Window 8 warms after 7 packets; after that the flow cycles through
        # a handful of distinct windows (the 64 us timestamp quantization
        # alternates 15/16-unit IPDs), each missing once — everything else
        # hits.
        assert cache.stats.misses <= 10
        assert cache.stats.hit_rate > 0.8

    def test_scalar_and_batched_share_cache_layout(self, compiled16):
        """A replay in one-packet steps primes the cache; a replay in
        16-packet steps hits it, and both decide as the oracle."""
        trace = constant_rate_flow(n_packets=40)
        labels = np.full(len(trace), -1)
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), trace, labels)
        cache = FlowDecisionCache(capacity=64)
        primed = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=1,
            decision_cache=cache).process_trace(trace, labels)
        primed_misses = cache.stats.misses
        batched_rt = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=16,
            decision_cache=cache)
        got = batched_rt.process_trace(trace, labels)
        assert list(primed) == list(got) == ref
        assert cache.stats.misses == primed_misses   # zero new misses

    def test_failed_model_invocation_leaves_no_pending(self, compiled16):
        """A mid-flush model failure must not strand PENDING placeholders:
        the cache stays clean and keeps producing correct decisions."""
        from repro.serving.cache import PENDING

        class FlakyModel:
            def __init__(self, inner):
                self.inner = inner
                self.fail_next = True

            def predict(self, x, **kw):
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("transient model failure")
                return self.inner.predict(x, **kw)

        trace = constant_rate_flow(n_packets=40)
        cache = FlowDecisionCache(capacity=64)
        flaky = WindowedClassifierRuntime(
            FlakyModel(compiled16), feature_mode="stats", batch_size=16,
            decision_cache=cache)
        with pytest.raises(RuntimeError, match="transient"):
            flaky.process_trace(trace)
        assert not any(v is PENDING for v in cache._entries.values())
        # The same (now-clean) cache serves fresh replicas correctly, in
        # 16-packet and in one-packet steps: both decide as the oracle.
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), trace, np.full(len(trace), -1))
        for batch_size in (16, 1):
            got = WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=batch_size,
                decision_cache=cache).process_trace(trace)
            assert list(got) == ref, batch_size

    def test_fill_resolves_only_live_entries(self):
        from repro.serving.cache import PENDING
        cache = FlowDecisionCache(capacity=1)
        cache.put("a", PENDING)
        cache.put("b", PENDING)          # evicts the pending "a"
        cache.fill("a", 7)               # evicted: stays evicted, no insert
        cache.fill("b", 9)
        assert cache.get("a") is None
        assert cache.get("b") == 9
        # fill is value-only bookkeeping: no stat, no recency change.
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    @pytest.mark.parametrize("capacity", (2, 3, 64))
    @pytest.mark.parametrize("batch_size", (16, 64))
    def test_stats_scalar_faithful_under_dedup_and_eviction(
            self, compiled16, capacity, batch_size):
        """In-batch window dedup and LRU eviction in the same flush must not
        drift the counters: hits + misses == lookups, and the whole
        hit/miss/evict stream equals that of one-packet steps (where each
        step holds one ready row, so the cache sees the per-packet order)."""
        packets = []
        for port, ipd in ((40000, 0.001), (40001, 0.00064), (40002, 0.0017)):
            packets.extend(constant_rate_flow(n_packets=50, port=port,
                                              ipd=ipd).packets)
        packets.sort(key=lambda p: p.ts)
        trace = Trace(packets)
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), trace, np.full(len(trace), -1))

        scalar_cache = FlowDecisionCache(capacity=capacity)
        WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=1,
            decision_cache=scalar_cache).process_trace(trace)

        batched_cache = FlowDecisionCache(capacity=capacity)
        batched_rt = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=batch_size,
            decision_cache=batched_cache)
        got = batched_rt.process_trace(trace)

        assert list(got) == ref
        assert batched_cache.stats.hits + batched_cache.stats.misses \
            == batched_cache.stats.lookups == len(got)
        assert (batched_cache.stats.hits, batched_cache.stats.misses,
                batched_cache.stats.evictions) == \
            (scalar_cache.stats.hits, scalar_cache.stats.misses,
             scalar_cache.stats.evictions)
        if capacity < 64:
            assert batched_cache.stats.evictions > 0    # churn actually hit
        assert batched_cache.stats.hits > 0             # dedup actually hit


class TestCacheDegenerateCapacities:
    """Capacity 1 and 2: the LRU edge cases where every insert evicts.

    Driven by the Zipf-skewed ``heavy_hitters`` scenario (a few elephant
    keys carry most packets with repeating windows), so key reuse and
    same-flush eviction churn both actually occur.
    """

    @pytest.fixture(scope="class")
    def zipf_workload(self):
        from repro.net import build_scenario
        return build_scenario("heavy_hitters").generate(seed=7,
                                                        flows_scale=0.3)

    def test_capacity_one_lru_semantics(self):
        cache = FlowDecisionCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)                 # evicts "a" immediately
        assert len(cache) == 1
        assert cache.get("a") is None and cache.get("b") == 2
        cache.put("b", 5)                 # refresh in place: no eviction
        assert cache.get("b") == 5
        assert cache.stats.evictions == 1

    def test_capacity_one_pending_churn(self):
        from repro.serving.cache import PENDING
        cache = FlowDecisionCache(capacity=1)
        cache.put("a", PENDING)
        cache.put("b", PENDING)           # evicts the pending "a" in-flush
        cache.fill("a", 3)                # must stay evicted
        cache.discard_pending("b")        # exception-path cleanup
        assert len(cache) == 0
        assert cache.get("a") is None and cache.get("b") is None
        assert cache.stats.evictions == 1

    def test_capacity_two_alternation_thrash(self):
        cache = FlowDecisionCache(capacity=2)
        for i in range(10):               # a,b,c round-robin over capacity 2:
            cache.put(("k", i % 3), i)    # every insert evicts, no hit ever
        assert cache.stats.evictions == 8
        assert len(cache) == 2

    @pytest.mark.parametrize("capacity", (1, 2))
    @pytest.mark.parametrize("batch_size", (16, 64))
    def test_zipf_replay_bit_identical_and_stats_faithful(
            self, compiled16, zipf_workload, capacity, batch_size):
        """At capacity 1 and 2, batched replay (PENDING placeholders evicted
        within their own flush) must still match the oracle decision for
        decision, and one-packet steps counter for counter, on a
        Zipf-skewed workload."""
        trace, labels = zipf_workload.trace, zipf_workload.labels

        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=batch_size).process_trace(trace, labels=labels)
        scal = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), trace, labels)

        scalar_cache = FlowDecisionCache(capacity=capacity)
        WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=1,
            decision_cache=scalar_cache).process_trace(trace, labels=labels)

        batched_cache = FlowDecisionCache(capacity=capacity)
        got = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=batch_size,
            decision_cache=batched_cache).process_trace(trace, labels=labels)

        assert list(got) == scal == list(ref)   # cache never changes decisions
        assert batched_cache.stats.lookups == len(got)
        assert (batched_cache.stats.hits, batched_cache.stats.misses,
                batched_cache.stats.evictions) == \
            (scalar_cache.stats.hits, scalar_cache.stats.misses,
             scalar_cache.stats.evictions)
        # the workload actually exercised the degenerate cache: at capacity
        # 1-2 nearly every insert evicts (interleaved flows thrash the LRU)
        assert batched_cache.stats.evictions > 100

    def test_zipf_hits_emerge_just_above_thrash(self, compiled16,
                                                zipf_workload):
        """Same workload, capacity 4: the Zipf elephants' repeating windows
        start hitting — confirming capacity 1-2 miss-storms above are the
        cache thrashing, not the workload lacking repetition."""
        cache = FlowDecisionCache(capacity=4)
        WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=64,
            decision_cache=cache).process_trace(zipf_workload.trace,
                                                labels=zipf_workload.labels)
        assert cache.stats.hits > 100
        assert cache.stats.evictions > 100
