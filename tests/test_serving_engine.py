"""The PegasusEngine facade: one config, one build path, zero drift.

The headline contract: for **every** supported ``EngineConfig`` —
topology x cache x lookup_backend x runtime kind — the engine's decisions
are bit-identical to the equivalent hand-wired dispatcher/runtime stack.
Plus: typed config validation, the closed runtime/topology tables and the
lookup-backend registry, lifecycle semantics, and the merged ServingReport.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fuzzy import FuzzyTree
import repro.dataplane.runtime as runtime_module
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime,
                                     flows_to_trace)
from repro.dataplane.schema import ColumnSchema
from repro.errors import ConfigError, PegasusError
from repro.eval.oracle import ScalarOracle
from repro.net import build_scenario
from repro.net.traces import Trace
from repro.serving import EngineConfig, PegasusEngine, ServingReport
from repro.serving import engine as engine_mod
from repro.serving.cache import FlowDecisionCache
from repro.serving.dispatcher import ShardedDispatcher, shard_hash_columns
from repro.serving.parallel import ParallelDispatcher

TOPOLOGIES = ("local", "sharded", "parallel")
BACKENDS = ("index", "tcam-pruned")
BACKEND_IDS = ("index", "tcam")    # "tcam-pruned" is the one TCAM backend
TWO_STAGE_BACKENDS = ("index",)    # EngineConfig rejects two_stage + TCAM
BATCH = 32

#: One invalid ``EngineConfig`` per row, with the field its ``ConfigError``
#: must name. Every field has at least one row (see
#: ``test_every_field_has_an_invalid_row``).
INVALID_CONFIGS = [
    (dict(runtime="nope"), "runtime"),
    (dict(topology="nope"), "topology"),
    (dict(lookup_backend="nope"), "lookup_backend"),
    (dict(feature_mode="nope"), "feature_mode"),
    (dict(topology="local", n_workers=2), "n_workers"),
    (dict(n_workers=0, topology="sharded"), "n_workers"),
    (dict(runtime="Windowed"), "runtime"),
    (dict(capacity=0), "capacity"),
    (dict(decision_cache=True), "decision_cache"),    # no bool aliases
    (dict(batch_size=0), "batch_size"),
    (dict(batch_size=-1), "batch_size"),
    (dict(topology="paralel"), "topology"),
    (dict(n_workers=0, topology="parallel"), "n_workers"),
    (dict(decision_cache="L1"), "decision_cache"),
    (dict(admission="tail_drop"), "admission"),
    (dict(decision_cache="l3"), "decision_cache"),
    (dict(decision_cache=False), "decision_cache"),
    (dict(capacity=-1), "capacity"),
    (dict(lookup_backend="TCAM"), "lookup_backend"),
    (dict(feature_mode="Stats"), "feature_mode"),
    (dict(p99_target_ms=-1.0), "p99_target_ms"),
    (dict(admission="nope"), "admission"),
    (dict(queue_capacity=0), "queue_capacity"),
    (dict(p99_target_ms=0.0), "p99_target_ms"),
    (dict(time_scale=-1.0), "time_scale"),
    ({"lookup_backend": "tcam"}, "lookup_backend"),    # no full-scan backend
    (dict(runtime="two_stage", lookup_backend="tcam-pruned"),
     "lookup_backend"),
    (dict(admission="aimd", p99_target_ms=float("nan")), "p99_target_ms"),
    (dict(p99_target_ms=float("inf")), "p99_target_ms"),
    (dict(time_scale=float("nan")), "time_scale"),
    (dict(time_scale=float("inf")), "time_scale"),
    (dict(batch_size=2.5), "batch_size"),
    (dict(batch_size=256.0), "batch_size"),
    (dict(capacity=True), "capacity"),
    (dict(topology="sharded", n_workers=True), "n_workers"),
    (dict(queue_capacity="8"), "queue_capacity"),
    (dict(time_scale="1"), "time_scale"),
    (dict(p99_target_ms="5"), "p99_target_ms"),
    (dict(time_scale=True), "time_scale"),
    (dict(p99_target_ms=True), "p99_target_ms"),
    (dict(runtime=["x"]), "runtime"),
    (dict(topology=["x"]), "topology"),
    (dict(admission=["x"]), "admission"),
    (dict(decision_cache=["x"]), "decision_cache"),
    (dict(lookup_backend=["x"]), "lookup_backend"),
    (dict(feature_mode=["x"]), "feature_mode"),
    (dict(runtime="two_stage", decision_cache="l1"), "decision_cache"),
    (dict(runtime="two_stage", decision_cache="l1+l2"), "decision_cache"),
    (dict(runtime="two_stage", feature_mode="seq"), "feature_mode"),
]


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


def _config(topology, cached, backend, **kw):
    return EngineConfig(
        feature_mode="stats", batch_size=BATCH, lookup_backend=backend,
        decision_cache="l1" if cached else "off",
        topology=topology, n_workers=1 if topology == "local" else 2, **kw)


def _windowed_factory(compiled16, cached, backend):
    def build():
        cache = FlowDecisionCache() if cached else None
        rt = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=BATCH,
            decision_cache=cache)
        rt.set_lookup_backend(backend)
        return rt
    return build


def _two_stage_factory(spec, backend):
    def build():
        rt = TwoStageRuntime(batch_size=BATCH, **spec)
        rt.set_lookup_backend(backend)
        return rt
    return build


def _hand_wired(factory, topology, flows, payload_bytes=None):
    """The pre-engine stack for one topology, directly wired."""
    if topology == "local":
        trace, labels = flows_to_trace(flows)
        return factory().process_trace(trace, labels=labels, batch_size=BATCH)
    if topology == "sharded":
        return ShardedDispatcher(runtime_factory=factory,
                                 n_shards=2).serve_flows(flows)
    with ParallelDispatcher(runtime_factory=factory, n_workers=2,
                            payload_bytes=payload_bytes) as dispatcher:
        return dispatcher.serve_flows(flows)


class TestConfigMatrixEquivalence:
    """Engine == hand-wired stack, bit for bit, across the full matrix."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_windowed(self, compiled16, replay_flows, topology, cached,
                      backend):
        ref = _hand_wired(_windowed_factory(compiled16, cached, backend),
                          topology, replay_flows)
        assert ref
        with PegasusEngine.from_compiled(
                compiled16, _config(topology, cached, backend)) as engine:
            report = engine.serve(replay_flows)
        assert list(report.decisions) == list(ref)
        if cached:
            assert report.cache_stats.lookups == len(ref)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("backend", TWO_STAGE_BACKENDS)
    def test_two_stage(self, two_stage_spec, replay_flows, topology, cached,
                       backend):
        """Uncached: engine == hand-wired. Cached: two-stage has no decision
        cache, so the config is rejected on every topology."""
        if cached:
            with pytest.raises(ConfigError) as exc:
                _config(topology, cached, backend, runtime="two_stage")
            assert exc.value.field == "decision_cache"
            return
        ref = _hand_wired(_two_stage_factory(two_stage_spec, backend),
                          topology, replay_flows, payload_bytes=60)
        assert ref
        config = _config(topology, cached, backend, runtime="two_stage")
        with PegasusEngine(source=two_stage_spec, config=config) as engine:
            report = engine.serve(replay_flows)
        assert list(report.decisions) == list(ref)
        assert report.cache_stats.lookups == 0

    def test_parallel_spawn_start_method(self, compiled16, replay_flows):
        """Engine-built replica factories stay picklable, which is all a
        spawn-started worker needs: a pickled round trip of the parallel
        engine's factory builds a replica that decides identically."""
        ref = _hand_wired(_windowed_factory(compiled16, False, "index"),
                          "local", replay_flows)
        engine = PegasusEngine.from_compiled(
            compiled16, _config("parallel", False, "index"))
        factory = pickle.loads(pickle.dumps(engine._replica_factory))
        trace, labels = flows_to_trace(replay_flows)
        got = factory().process_trace(trace, labels=labels, batch_size=BATCH)
        assert list(got) == list(ref)

    def test_serve_dispatches_trace_and_columns(self, compiled16,
                                                replay_flows):
        """serve() routes flows, Trace, and column dicts to one answer."""
        trace, labels = flows_to_trace(replay_flows)
        cols = trace.to_columns()
        for topology in ("local", "sharded"):
            config = _config(topology, False, "index")
            ref = PegasusEngine.from_compiled(compiled16, config) \
                .serve(replay_flows).decisions
            via_trace = PegasusEngine.from_compiled(compiled16, config) \
                .serve(trace, labels=labels).decisions
            via_cols = PegasusEngine.from_compiled(compiled16, config) \
                .serve(cols, labels=labels).decisions
            assert list(via_trace) == list(ref)
            assert list(via_cols) == list(ref)

    def test_serve_columns_requires_key_columns(self, compiled16,
                                                replay_flows):
        cols = Trace.from_flows(replay_flows).to_columns()
        del cols["proto"]
        engine = PegasusEngine.from_compiled(compiled16, _config("local",
                                                                 False,
                                                                 "index"))
        with pytest.raises(ValueError, match="missing serve columns"):
            engine.serve(cols)


class TestRegisterStep:
    """Closed-loop ``local`` and ``sharded`` serves step registers in
    ``REGISTER_STEP_ROWS`` spans, whatever ``batch_size`` says. Steps that
    cut inside flows' windows and under eviction change no decision, no
    register and no eviction."""

    @pytest.mark.parametrize("step_rows", [1, 7, 64])
    @pytest.mark.parametrize("capacity", [4096, 5])
    @pytest.mark.parametrize("topology,n_workers",
                             [("local", 1), ("sharded", 3)])
    @pytest.mark.parametrize("runtime", ["windowed", "two_stage"])
    def test_step_cuts_match_scalar(self, compiled16, two_stage_spec,
                                    replay_flows, registers_match,
                                    monkeypatch, runtime, topology, n_workers,
                                    capacity, step_rows):
        source = compiled16 if runtime == "windowed" else two_stage_spec
        trace, labels = flows_to_trace(replay_flows)
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", step_rows)
        config = EngineConfig(runtime=runtime, feature_mode="stats",
                              capacity=capacity, batch_size=BATCH,
                              topology=topology, n_workers=n_workers)
        with PegasusEngine(source=source, config=config) as engine:
            report = engine.serve(trace, labels=labels)
            replicas = engine._driver.runtimes
            # Each replica against the scalar oracle of its shard.
            shard_ids = shard_hash_columns(trace.canonical_key_columns()) \
                % np.uint64(n_workers)
            want, steps, evictions = [], 0, 0
            for s, replica in enumerate(replicas):
                members = np.flatnonzero(shard_ids == s)
                oracle = ScalarOracle.of(engine._replica_factory())
                want += oracle.replay(trace.take(members), labels[members],
                                      members)
                registers_match(replica.state, oracle)
                steps += -(-len(members) // step_rows)
                evictions += oracle.evictions
        assert want and list(report.decisions) == sorted(
            want, key=lambda d: d.seq)
        assert report.flush_stats.total == steps > len(replicas)
        assert (evictions > 0) == (capacity == 5)


class TestOneDispatcher:
    """``local``, ``sharded`` x1 and ``parallel`` x1 are the same dispatcher
    holding one replica: everything a report carries must agree."""

    @pytest.mark.parametrize("shape", ["trace", "flows", "columns"])
    @pytest.mark.parametrize("runtime", ["windowed", "two_stage"])
    def test_single_replica_topologies_agree(self, compiled16, two_stage_spec,
                                             replay_flows, monkeypatch,
                                             runtime, shape):
        # Every replica, in process or in a worker forked after this patch,
        # steps these rows, so every topology cuts the same spans and counts
        # the same flushes.
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", BATCH)
        source = compiled16 if runtime == "windowed" else two_stage_spec
        trace, labels = flows_to_trace(replay_flows)
        workload, kwargs = {
            "trace": (trace, {"labels": labels}),
            "flows": (replay_flows, {}),
            "columns": (trace.to_columns(payload_bytes=60),
                        {"labels": labels}),
        }[shape]
        cached = runtime == "windowed"      # two_stage has no cache
        reports = []
        for topology in TOPOLOGIES:
            config = EngineConfig(
                runtime=runtime, feature_mode="stats", batch_size=BATCH,
                decision_cache="l1" if cached else "off",
                topology=topology, n_workers=1)
            with PegasusEngine(source=source, config=config) as engine:
                reports.append(engine.serve(workload, **kwargs))
        local = reports[0]
        assert local.decisions and local.flush_stats.total > 0
        assert local.cache_stats.lookups == (len(local.decisions) if cached
                                             else 0)
        for report in reports:
            assert list(report.decisions) == list(local.decisions)
            assert report.flush_stats.total == local.flush_stats.total
            assert len(report.shard_seconds) == 1
            assert report.cache_stats == local.cache_stats

    @pytest.mark.parametrize("topology", ["sharded", "parallel"])
    def test_one_split_validation_per_serve(self, compiled16, replay_flows,
                                            topology, monkeypatch):
        """A two-replica serve checks its columns at the shard split exactly
        once."""
        contexts = []
        original = ColumnSchema.validate_columns

        def recording(self, cols, require=None, context=""):
            contexts.append(context)
            return original(self, cols, require=require, context=context)

        monkeypatch.setattr(ColumnSchema, "validate_columns", recording)
        with PegasusEngine.from_compiled(
                compiled16, _config(topology, False, "index")) as engine:
            for served in (1, 2):
                assert engine.serve(replay_flows).decisions
                splits = [c for c in contexts if "shard split" in c]
                assert len(splits) == served
                assert len(set(splits)) == 1


def fields_without_invalid_row(config_cls, rows) -> list[str]:
    """The fields of ``config_cls`` that no ``(kwargs, field)`` row names."""
    return sorted({f.name for f in dataclasses.fields(config_cls)}
                  - {field for _, field in rows})


class TestEngineConfig:
    @pytest.mark.parametrize("kwargs,field", INVALID_CONFIGS)
    def test_typed_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            EngineConfig(**kwargs)
        assert exc.value.field == field
        assert isinstance(exc.value, PegasusError)
        assert isinstance(exc.value, ValueError)    # old callers still catch

    def test_every_field_has_an_invalid_row(self):
        assert fields_without_invalid_row(EngineConfig, INVALID_CONFIGS) \
            == []

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.batch_size = 1

    def test_numpy_numbers_accepted(self):
        config = EngineConfig(batch_size=np.int64(64), capacity=np.int32(8),
                              time_scale=np.float32(0.5), p99_target_ms=2)
        assert (config.batch_size, config.capacity) == (64, 8)

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
        assert list(got) == list(ref)

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
            model, runtime="two_stage", batch_size=BATCH).serve(replay_flows)
        assert list(report.decisions) == list(ref)
        assert report.cache_stats.lookups == 0

    def test_two_stage_has_no_cache_by_any_route(self, two_stage_spec):
        """The config, the from_model builder and the runtime constructor
        all refuse a two-stage decision cache."""
        for mode in ("l1", "l1+l2"):
            with pytest.raises(ConfigError) as exc:
                EngineConfig(runtime="two_stage", decision_cache=mode)
            assert exc.value.field == "decision_cache"
            with pytest.raises(ConfigError, match="decision_cache"):
                PegasusEngine.from_model(_TwoStageModel(two_stage_spec),
                                         runtime="two_stage",
                                         decision_cache=mode)
        with pytest.raises(TypeError, match="decision_cache"):
            TwoStageRuntime(decision_cache=FlowDecisionCache(),
                            **two_stage_spec)
        assert not hasattr(TwoStageRuntime(**two_stage_spec),
                           "decision_cache")

    def test_from_model_two_stage_spawn_parallel(self, two_stage_spec,
                                                 replay_flows):
        """The from_model factory must also survive a spawn boundary: it
        round-trips through pickle and decides identically."""
        model = _TwoStageModel(two_stage_spec)
        ref = TwoStageRuntime(batch_size=BATCH, **two_stage_spec) \
            .process_flows(replay_flows)
        engine = PegasusEngine.from_model(
            model, runtime="two_stage", batch_size=BATCH,
            topology="parallel", n_workers=2)
        factory = pickle.loads(pickle.dumps(engine._replica_factory))
        assert list(factory().process_flows(replay_flows)) == list(ref)

    def test_from_factory_applies_backend(self, compiled16, replay_flows):
        factory = _windowed_factory(compiled16, False, "index")
        report = PegasusEngine.from_factory(
            factory, batch_size=BATCH, lookup_backend="tcam-pruned") \
            .serve(replay_flows)
        ref = _hand_wired(_windowed_factory(compiled16, False, "tcam-pruned"),
                          "local", replay_flows)
        assert list(report.decisions) == list(ref)
        assert report.lookup_backend == "tcam-pruned"

    @pytest.mark.parametrize("kwargs", [
        dict(capacity=7), dict(feature_mode="seq"),
        dict(decision_cache="l1+l2"),
    ], ids=["capacity", "feature_mode", "decision_cache"])
    def test_from_factory_rejects_replica_owned_field(self, compiled16,
                                                      kwargs):
        """The factory builds its replicas, so a config field only the
        replica could apply raises instead of being silently ignored."""
        factory = _windowed_factory(compiled16, False, "index")
        (name, value), = kwargs.items()
        with pytest.raises(ConfigError) as exc:
            PegasusEngine.from_factory(factory, EngineConfig(**kwargs))
        assert exc.value.field == name and exc.value.value == value
        with pytest.raises(ConfigError, match=name):
            PegasusEngine.from_factory(factory, **kwargs)

    def test_two_stage_source_must_be_mapping(self, compiled16):
        with pytest.raises(ConfigError, match="two_stage"):
            PegasusEngine(source=compiled16,
                          config=EngineConfig(runtime="two_stage"))

    def test_two_stage_source_rejects_engine_owned_fields(self,
                                                          two_stage_spec):
        spec = dict(two_stage_spec, capacity=8)
        with pytest.raises(ConfigError, match="capacity.*EngineConfig knobs"):
            PegasusEngine(source=spec,
                          config=EngineConfig(runtime="two_stage"))

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
            assert list(engine.serve(replay_flows).decisions) == list(first)
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


class TestServeLabels:
    """``labels`` must carry exactly one entry per packet, in every mode."""

    @pytest.mark.parametrize("mode,topology", [
        ("closed", "local"), ("closed", "sharded"), ("open", "local")])
    @pytest.mark.parametrize("length", ["short", "long"])
    def test_wrong_length_labels_rejected(self, compiled16, replay_flows,
                                          mode, topology, length):
        trace, labels = flows_to_trace(replay_flows)
        bad = labels[:10] if length == "short" \
            else np.concatenate([labels, labels])
        engine = PegasusEngine.from_compiled(
            compiled16, _config(topology, False, "index"))
        with pytest.raises(ConfigError) as exc:
            engine.serve(trace, labels=bad, mode=mode)
        assert exc.value.field == "labels"
        assert exc.value.value == len(bad)
        assert str(len(trace)) in str(exc.value)
        with pytest.raises(ConfigError, match="labels"):
            engine.serve(trace.to_columns(), labels=bad, mode=mode)
        engine.close()

    @pytest.mark.parametrize("mode", ["closed", "open"])
    @pytest.mark.parametrize("shape", ["flows", "scenario", "scenario_trace"])
    def test_labels_rejected_when_workload_carries_them(
            self, compiled16, replay_flows, shape, mode):
        """Flow lists and scenarios bring their own labels; a caller's
        ``labels`` used to be dropped silently, so it is rejected."""
        scenario = build_scenario("heavy_hitters")
        workload = {"flows": replay_flows, "scenario": scenario,
                    "scenario_trace": scenario.generate(seed=0,
                                                        flows_scale=0.1),
                    }[shape]
        engine = PegasusEngine.from_compiled(
            compiled16, _config("local", False, "index"))
        with pytest.raises(ConfigError) as exc:
            engine.serve(workload, labels=np.zeros(4, dtype=np.int64),
                         mode=mode)
        assert exc.value.field == "labels"
        assert "own per-packet labels" in str(exc.value)


class TestRegistries:
    """The closed runtime/topology tables and the lookup-backend registry."""

    def test_runtime_kind_round_trip(self, compiled16, two_stage_spec,
                                     replay_flows):
        """Each runtime name maps to its replica class and comes back on the
        report; an unknown name lists the closed table."""
        for kind, source, cls in (
                ("windowed", compiled16, WindowedClassifierRuntime),
                ("two_stage", two_stage_spec, TwoStageRuntime)):
            engine = PegasusEngine(source=source, runtime=kind,
                                   batch_size=BATCH)
            assert isinstance(engine._replica_factory(), cls)
            assert engine.serve(replay_flows).runtime == kind
        with pytest.raises(ConfigError) as exc:
            EngineConfig(runtime="windowed-2")
        assert exc.value.field == "runtime"
        assert exc.value.allowed == ("two_stage", "windowed")

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
            assert list(got) == list(ref)
        finally:
            engine_mod.lookup_backends.unregister("index-alias")
        with pytest.raises(ConfigError, match="lookup_backend"):
            EngineConfig(lookup_backend="index-alias")

    def test_topology_round_trip(self, compiled16):
        """Each topology name maps to its dispatcher; an unknown name lists
        the closed table."""
        for name, cls in (("local", ShardedDispatcher),
                          ("sharded", ShardedDispatcher),
                          ("parallel", ParallelDispatcher)):
            engine = PegasusEngine.from_compiled(compiled16, topology=name)
            assert type(engine._driver) is cls
        with pytest.raises(ConfigError) as exc:
            EngineConfig(topology="modeled")
        assert exc.value.field == "topology"
        assert exc.value.allowed == ("local", "parallel", "sharded")

    def test_duplicate_registration_needs_overwrite(self):
        with pytest.raises(ConfigError, match="already registered"):
            engine_mod.register_lookup_backend("index")
        # Re-registering with overwrite keeps the registry serviceable.
        engine_mod.register_lookup_backend("index", overwrite=True)
        assert "index" in engine_mod.lookup_backends
