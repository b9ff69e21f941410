"""The PegasusEngine facade: one config, one build path, zero drift.

The headline contract: for **every** supported ``EngineConfig`` —
topology x cache x lookup_backend x runtime kind — the engine's decisions
are bit-identical to the equivalent hand-wired dispatcher/runtime stack.
Plus: typed config validation, registry round-trips, lifecycle semantics,
and the merged ServingReport.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fuzzy import FuzzyTree
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime,
                                     flows_to_trace)
from repro.dataplane.schema import ColumnSchema, set_validation
from repro.errors import ConfigError, PegasusError
from repro.net.traces import Trace
from repro.serving import EngineConfig, PegasusEngine, ServingReport
from repro.serving import engine as engine_mod
from repro.serving.cache import FlowDecisionCache
from repro.serving.dispatcher import ShardedDispatcher
from repro.serving.parallel import ParallelDispatcher
from repro.serving.scheduler import BatchScheduler

TOPOLOGIES = ("local", "sharded", "parallel")
BACKENDS = ("index", "tcam")
BATCH = 32
CACHE_CAP = 4096


@pytest.fixture(scope="module")
def two_stage_spec():
    """Extractor tree + slot tables for a window-8 two-stage runtime."""
    rng = np.random.default_rng(2)
    tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
    slot_values = [rng.integers(-50, 50, size=(16, 3)) for _ in range(8)]
    return {"extractor_tree": tree, "slot_values": slot_values,
            "n_classes": 3, "idx_bits": 4}


class _TwoStageModel:
    """A minimal make_runtime model — module-level, so it pickles (spawn)."""

    def __init__(self, spec):
        self.spec = spec
        self.compiled = spec

    def make_runtime(self, capacity):
        return TwoStageRuntime(capacity=capacity, **self.spec)


def _modeled_topology(replica_factory, config, payload_bytes):
    """A plain topology builder: anything with the dispatcher protocol."""
    return ShardedDispatcher(runtime_factory=replica_factory,
                             n_shards=config.n_workers,
                             scheduler=config.scheduler())


def _config(topology, cached, backend, **kw):
    return EngineConfig(
        feature_mode="stats", batch_size=BATCH, lookup_backend=backend,
        decision_cache=cached, cache_capacity=CACHE_CAP,
        topology=topology, n_workers=1 if topology == "local" else 2, **kw)


def _windowed_factory(compiled16, cached, backend):
    def build():
        cache = FlowDecisionCache(CACHE_CAP) if cached else None
        rt = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=BATCH,
            decision_cache=cache)
        rt.set_lookup_backend(backend)
        return rt
    return build


def _two_stage_factory(spec, cached, backend):
    def build():
        cache = FlowDecisionCache(CACHE_CAP) if cached else None
        rt = TwoStageRuntime(batch_size=BATCH, decision_cache=cache, **spec)
        rt.set_lookup_backend(backend)
        return rt
    return build


def _hand_wired(factory, topology, flows, payload_bytes=None):
    """The pre-engine stack for one topology, directly wired."""
    scheduler = BatchScheduler(batch_size=BATCH)
    if topology == "local":
        trace, keys, labels = flows_to_trace(flows)
        ts = np.asarray([p.ts for p in trace.packets])
        return factory().process_trace(trace, labels=labels, keys=keys,
                                       spans=scheduler.iter_spans(ts))
    if topology == "sharded":
        return ShardedDispatcher(runtime_factory=factory, n_shards=2,
                                 scheduler=scheduler).serve_flows(flows)
    with ParallelDispatcher(runtime_factory=factory, n_workers=2,
                            scheduler=scheduler,
                            payload_bytes=payload_bytes) as dispatcher:
        return dispatcher.serve_flows(flows)


class TestConfigMatrixEquivalence:
    """Engine == hand-wired stack, bit for bit, across the full matrix."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_windowed(self, compiled16, replay_flows, topology, cached,
                      backend):
        ref = _hand_wired(_windowed_factory(compiled16, cached, backend),
                          topology, replay_flows)
        assert ref
        with PegasusEngine.from_compiled(
                compiled16, _config(topology, cached, backend)) as engine:
            report = engine.serve(replay_flows)
        assert report.decisions == ref
        if cached:
            assert report.cache_stats.lookups == len(ref)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_stage(self, two_stage_spec, replay_flows, topology, cached,
                       backend):
        ref = _hand_wired(_two_stage_factory(two_stage_spec, cached, backend),
                          topology, replay_flows, payload_bytes=60)
        assert ref
        config = _config(topology, cached, backend, runtime="two_stage")
        with PegasusEngine(source=two_stage_spec, config=config) as engine:
            report = engine.serve(replay_flows)
        assert report.decisions == ref

    def test_parallel_spawn_start_method(self, compiled16, replay_flows):
        """Engine-built replica factories stay picklable: the parallel
        topology must work under the spawn start method too."""
        ref = _hand_wired(_windowed_factory(compiled16, False, "index"),
                          "local", replay_flows)
        config = _config("parallel", False, "index", start_method="spawn")
        with PegasusEngine.from_compiled(compiled16, config) as engine:
            report = engine.serve(replay_flows)
        assert report.decisions == ref

    def test_serve_dispatches_trace_and_columns(self, compiled16,
                                                replay_flows):
        """serve() routes flows, Trace, and column dicts to one answer."""
        trace, _keys, labels = flows_to_trace(replay_flows)
        cols = trace.to_columns()
        for topology in ("local", "sharded"):
            config = _config(topology, False, "index")
            ref = PegasusEngine.from_compiled(compiled16, config) \
                .serve(replay_flows).decisions
            via_trace = PegasusEngine.from_compiled(compiled16, config) \
                .serve(trace, labels=labels).decisions
            via_cols = PegasusEngine.from_compiled(compiled16, config) \
                .serve(cols, labels=labels).decisions
            assert via_trace == ref
            assert via_cols == ref

    def test_serve_columns_requires_key_columns(self, compiled16,
                                                replay_flows):
        cols = Trace.from_flows(replay_flows).to_columns()
        del cols["proto"]
        engine = PegasusEngine.from_compiled(compiled16, _config("local",
                                                                 False,
                                                                 "index"))
        with pytest.raises(ValueError, match="missing serve columns"):
            engine.serve(cols)


class TestOneDispatcher:
    """``local``, ``sharded`` x1 and ``parallel`` x1 are the same dispatcher
    holding one replica: everything a report carries must agree."""

    @pytest.mark.parametrize("shape", ["trace", "flows", "columns"])
    @pytest.mark.parametrize("runtime", ["windowed", "two_stage"])
    def test_single_replica_topologies_agree(self, compiled16, two_stage_spec,
                                             replay_flows, runtime, shape):
        source = compiled16 if runtime == "windowed" else two_stage_spec
        trace, _keys, labels = flows_to_trace(replay_flows)
        workload, kwargs = {
            "trace": (trace, {"labels": labels}),
            "flows": (replay_flows, {}),
            "columns": (trace.to_columns(payload_bytes=60),
                        {"labels": labels}),
        }[shape]
        reports = []
        for topology in TOPOLOGIES:
            config = EngineConfig(
                runtime=runtime, feature_mode="stats", batch_size=BATCH,
                decision_cache=True, cache_capacity=CACHE_CAP,
                topology=topology, n_workers=1)
            with PegasusEngine(source=source, config=config) as engine:
                reports.append(engine.serve(workload, **kwargs))
        local = reports[0]
        assert local.decisions and local.flush_stats.total > 0
        assert local.cache_stats.lookups == len(local.decisions)
        for report in reports:
            assert report.decisions == local.decisions
            assert report.flush_stats.total == local.flush_stats.total
            assert len(report.shard_seconds) == 1
            assert report.cache_stats == local.cache_stats

    @pytest.mark.parametrize("topology", ["sharded", "parallel"])
    def test_one_split_validation_per_serve(self, compiled16, replay_flows,
                                            topology, monkeypatch):
        """With wire validation on (``REPRO_WIRE_VALIDATE=1``) a two-replica
        serve checks its columns at the shard split exactly once."""
        contexts = []
        original = ColumnSchema.validate_columns

        def recording(self, cols, require=None, context=""):
            contexts.append(context)
            return original(self, cols, require=require, context=context)

        monkeypatch.setattr(ColumnSchema, "validate_columns", recording)
        previous = set_validation(True)
        try:
            with PegasusEngine.from_compiled(
                    compiled16, _config(topology, False, "index")) as engine:
                for served in (1, 2):
                    assert engine.serve(replay_flows).decisions
                    splits = [c for c in contexts if "shard split" in c]
                    assert len(splits) == served
                    assert len(set(splits)) == 1
        finally:
            set_validation(previous)


class TestEngineConfig:
    @pytest.mark.parametrize("kwargs,field", [
        (dict(runtime="nope"), "runtime"),
        (dict(topology="nope"), "topology"),
        (dict(lookup_backend="nope"), "lookup_backend"),
        (dict(feature_mode="nope"), "feature_mode"),
        (dict(topology="local", n_workers=2), "n_workers"),
        (dict(n_workers=0, topology="sharded"), "n_workers"),
        (dict(window=1), "window"),
        (dict(capacity=0), "capacity"),
        (dict(cache_capacity=0), "cache_capacity"),
        (dict(batch_size=0), "batch_size"),
        (dict(min_batch_size=9, batch_size=4), "min_batch_size"),
        (dict(payload_bytes=0), "payload_bytes"),
        (dict(timeout=-1.0), "timeout"),
        (dict(latency_target=-1.0), "latency_target"),
        (dict(batch_size=4, max_batch_size=1), "max_batch_size"),
        (dict(decision_cache="l3"), "decision_cache"),
        (dict(l2_capacity=0), "l2_capacity"),
        (dict(l2_quantize_shift=-1), "l2_quantize_shift"),
        (dict(start_method="thread"), "start_method"),
        (dict(ring_depth=0), "ring_depth"),
        (dict(ring_chunk=0), "ring_chunk"),
        (dict(admission="nope"), "admission"),
        (dict(queue_capacity=0), "queue_capacity"),
        (dict(p99_target_ms=0.0), "p99_target_ms"),
        (dict(time_scale=-1.0), "time_scale"),
    ])
    def test_typed_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            EngineConfig(**kwargs)
        assert exc.value.field == field
        assert isinstance(exc.value, PegasusError)
        assert isinstance(exc.value, ValueError)    # old callers still catch

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.batch_size = 1

    def test_overrides_revalidate(self, compiled16):
        config = EngineConfig(batch_size=64)
        with pytest.raises(ConfigError):
            PegasusEngine.from_compiled(compiled16, config, topology="nope")
        engine = PegasusEngine.from_compiled(compiled16, config,
                                             topology="sharded", n_workers=3)
        assert engine.config.batch_size == 64
        assert engine.config.n_workers == 3

    def test_bad_config_type(self, compiled16):
        with pytest.raises(ConfigError, match="config"):
            PegasusEngine.from_compiled(compiled16, config={"batch_size": 4})

    def test_source_xor_factory(self, compiled16):
        with pytest.raises(ConfigError, match="source"):
            PegasusEngine()
        with pytest.raises(ConfigError, match="source"):
            PegasusEngine(source=compiled16,
                          runtime_factory=lambda: None)


class TestBuilders:
    def test_from_model_windowed(self, compiled16, replay_flows):
        model = SimpleNamespace(compiled=compiled16)
        ref = PegasusEngine.from_compiled(
            compiled16, batch_size=BATCH).serve(replay_flows).decisions
        got = PegasusEngine.from_model(
            model, batch_size=BATCH).serve(replay_flows).decisions
        assert got == ref

    def test_from_model_requires_compiled(self):
        with pytest.raises(ConfigError, match="compiled"):
            PegasusEngine.from_model(SimpleNamespace(compiled=None))

    def test_from_model_two_stage_needs_make_runtime(self, compiled16):
        with pytest.raises(ConfigError, match="make_runtime"):
            PegasusEngine.from_model(SimpleNamespace(compiled=compiled16),
                                     runtime="two_stage")

    def test_from_model_two_stage(self, two_stage_spec, replay_flows):
        model = _TwoStageModel(two_stage_spec)
        ref = TwoStageRuntime(batch_size=BATCH, **two_stage_spec) \
            .process_flows(replay_flows)
        report = PegasusEngine.from_model(
            model, runtime="two_stage", batch_size=BATCH,
            decision_cache=True).serve(replay_flows)
        assert report.decisions == ref
        assert report.cache_stats.lookups == len(ref)

    def test_from_model_two_stage_spawn_parallel(self, two_stage_spec,
                                                 replay_flows):
        """The from_model factory must also survive a spawn boundary."""
        model = _TwoStageModel(two_stage_spec)
        ref = TwoStageRuntime(batch_size=BATCH, **two_stage_spec) \
            .process_flows(replay_flows)
        with PegasusEngine.from_model(
                model, runtime="two_stage", batch_size=BATCH,
                topology="parallel", n_workers=2,
                start_method="spawn") as engine:
            report = engine.serve(replay_flows)
        assert report.decisions == ref

    def test_from_factory_applies_backend(self, compiled16, replay_flows):
        factory = _windowed_factory(compiled16, False, "index")
        report = PegasusEngine.from_factory(
            factory, batch_size=BATCH, lookup_backend="tcam") \
            .serve(replay_flows)
        ref = _hand_wired(_windowed_factory(compiled16, False, "tcam"),
                          "local", replay_flows)
        assert report.decisions == ref
        assert report.lookup_backend == "tcam"

    def test_two_stage_source_must_be_mapping(self, compiled16):
        with pytest.raises(ConfigError, match="two_stage"):
            PegasusEngine(source=compiled16,
                          config=EngineConfig(runtime="two_stage"))

    def test_two_stage_source_rejects_engine_owned_fields(self,
                                                          two_stage_spec):
        spec = dict(two_stage_spec, window=8)
        with pytest.raises(ConfigError, match="window.*EngineConfig knobs"):
            PegasusEngine(source=spec,
                          config=EngineConfig(runtime="two_stage"))

    def test_from_model_window_must_match(self, two_stage_spec):
        model = _TwoStageModel(two_stage_spec)     # builds window-8 replicas
        with pytest.raises(ConfigError, match="window-8"):
            PegasusEngine.from_model(model, runtime="two_stage", window=4)

    def test_from_model_infers_payload_bytes(self, two_stage_spec):
        engine = PegasusEngine.from_model(_TwoStageModel(two_stage_spec),
                                          runtime="two_stage")
        assert engine.payload_bytes == 60          # TwoStageRuntime default
        narrow = PegasusEngine.from_model(
            _TwoStageModel(dict(two_stage_spec, raw_bytes=32)),
            runtime="two_stage")
        assert narrow.payload_bytes == 32


class TestLifecycleAndReport:
    def test_close_discards_state_any_topology(self, compiled16,
                                               replay_flows):
        for topology in TOPOLOGIES:
            engine = PegasusEngine.from_compiled(
                compiled16, _config(topology, False, "index"))
            first = engine.serve(replay_flows).decisions
            warm = engine.serve(replay_flows).decisions
            assert len(warm) > len(first)   # replica state persisted
            engine.close()
            assert engine.serve(replay_flows).decisions == first
            engine.close()
            engine.close()                  # idempotent
        assert first

    def test_report_fields(self, compiled16, replay_flows):
        config = _config("sharded", True, "index")
        with PegasusEngine.from_compiled(compiled16, config) as engine:
            report = engine.serve(replay_flows)
        assert isinstance(report, ServingReport)
        assert report.n_decisions == len(report.decisions) > 0
        assert report.n_packets >= report.n_decisions
        assert report.wall_seconds > 0 and report.pps > 0
        assert len(report.shard_seconds) == 2
        assert report.critical_seconds <= sum(report.shard_seconds) + 1e-9
        assert report.pps_parallel >= report.pps
        assert 0.0 <= report.accuracy <= 1.0
        assert report.flush_stats.total > 0
        assert report.cache_stats.lookups == report.n_decisions
        summary = report.summary()
        assert summary["topology"] == "sharded"
        assert summary["n_workers"] == 2
        assert summary["pps"] == report.pps

    def test_report_cache_stats_are_a_snapshot(self, compiled16,
                                               replay_flows):
        """A report must not mutate retroactively on later serves."""
        engine = PegasusEngine.from_compiled(
            compiled16, _config("local", True, "index"))
        first = engine.serve(replay_flows)
        lookups_then = first.cache_stats.lookups
        second = engine.serve(replay_flows)
        assert second.cache_stats.lookups > lookups_then   # lifetime grows
        assert first.cache_stats.lookups == lookups_then   # snapshot holds

    def test_unlabelled_trace_has_no_accuracy(self, compiled16,
                                              replay_flows):
        trace = Trace.from_flows(replay_flows)
        report = PegasusEngine.from_compiled(
            compiled16, batch_size=BATCH).serve(trace)
        assert report.decisions
        assert all(d.flow_label == -1 for d in report.decisions)
        assert report.accuracy is None
        assert report.summary()["accuracy"] is None


class TestRegistries:
    def test_runtime_kind_round_trip(self, compiled16, replay_flows):
        from repro.serving.engine import _build_windowed
        engine_mod.register_runtime_kind("windowed-2", _build_windowed)
        try:
            got = PegasusEngine.from_compiled(
                compiled16, runtime="windowed-2",
                batch_size=BATCH).serve(replay_flows).decisions
            ref = PegasusEngine.from_compiled(
                compiled16, batch_size=BATCH).serve(replay_flows) \
                .decisions
            assert got == ref
        finally:
            engine_mod.runtime_kinds.unregister("windowed-2")
        with pytest.raises(ConfigError, match="runtime"):
            EngineConfig(runtime="windowed-2")

    def test_lookup_backend_round_trip(self, compiled16, replay_flows):
        engine_mod.register_lookup_backend(
            "index-alias", apply=lambda rt: rt.set_lookup_backend("index"))
        try:
            got = PegasusEngine.from_compiled(
                compiled16, lookup_backend="index-alias",
                batch_size=BATCH).serve(replay_flows).decisions
            ref = PegasusEngine.from_compiled(
                compiled16, batch_size=BATCH).serve(replay_flows) \
                .decisions
            assert got == ref
        finally:
            engine_mod.lookup_backends.unregister("index-alias")
        with pytest.raises(ConfigError, match="lookup_backend"):
            EngineConfig(lookup_backend="index-alias")

    def test_topology_round_trip(self, compiled16, replay_flows):
        engine_mod.register_topology("modeled", _modeled_topology)
        try:
            got = PegasusEngine.from_compiled(
                compiled16, topology="modeled", n_workers=2,
                batch_size=BATCH).serve(replay_flows).decisions
            ref = PegasusEngine.from_compiled(
                compiled16, topology="sharded", n_workers=2,
                batch_size=BATCH).serve(replay_flows).decisions
            assert got == ref
        finally:
            engine_mod.topologies.unregister("modeled")
        with pytest.raises(ConfigError, match="topology"):
            EngineConfig(topology="modeled")

    def test_duplicate_registration_needs_overwrite(self):
        with pytest.raises(ConfigError, match="already registered"):
            engine_mod.register_topology(
                "local", engine_mod.topologies.get("local"))
        # Re-registering with overwrite keeps the registry serviceable.
        engine_mod.register_topology(
            "local", engine_mod.topologies.get("local"), overwrite=True)
        assert "local" in engine_mod.topologies
