"""`PegasusEngine`: one config, one build path, a closed set of deployments.

Before this facade every consumer hand-wired its own serving stack —
compiler output -> runtime -> cache -> one of the dispatchers — with the
cross-cutting knobs (``lookup_backend``, ``decision_cache``, ``batch_size``,
``n_workers``) validated in five different places. The engine replaces that
with a single declarative deployment surface, the shape production
dataplane-serving systems expose over heterogeneous fast paths:

- :class:`EngineConfig` — one frozen dataclass naming the runtime kind,
  feature mode, lookup backend, batch size, cache settings, and topology
  (``local | sharded | parallel`` with ``n_workers``); validated once at
  construction with typed :class:`~repro.errors.ConfigError` s.
- :class:`PegasusEngine` — owns the full lifecycle: ``from_model(...)`` /
  ``from_compiled(...)`` builders, context-manager ``start()/close()``, and
  **one** polymorphic ``serve(workload, mode="closed"|"open")`` entry point
  that dispatches on workload shape (flows / trace / columns / scenario)
  and, in open mode, pumps the workload through an admission policy
  (``none | tail-drop | aimd``) into a bounded ingress queue paced by the
  trace's own timestamps.
- :class:`ServingReport` — one merged result per serve: decisions, wall
  clock, per-shard breakdown, flush stats, cache stats, derived pps and
  accuracy — replacing the old ad-hoc tuples and attribute-poking.

Runtime kinds, topologies and admission policies are closed: each is a
name -> builder table in this module (:data:`RUNTIME_BUILDERS`,
:data:`TOPOLOGY_BUILDERS`, :data:`ADMISSION_BUILDERS`), and an unknown name
fails at ``EngineConfig`` construction with the choices listed. A new one is
a code change to its table, with tests. Lookup backends are still a registry
(:func:`register_lookup_backend`), seeded with
:data:`repro.core.mapping.LOOKUP_BACKENDS`; the differential harness's fault
injectors register through it.

End-to-end usage::

    from repro.serving import EngineConfig, PegasusEngine

    config = EngineConfig(feature_mode="stats", decision_cache="l1",
                          lookup_backend="tcam-pruned",
                          topology="parallel", n_workers=4)
    with PegasusEngine.from_compiled(compiled, config) as eng:
        report = eng.serve(test_flows)
        print(report.pps, report.cache_stats.hit_rate)

Every supported configuration is **bit-identical** to the equivalent
hand-wired dispatcher/runtime stack (asserted across the full
topology x cache x backend x runtime-kind matrix by
``tests/test_serving_engine.py``).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from repro.core.mapping import LOOKUP_BACKENDS
from repro.dataplane.decisions import DecisionBatch
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime,
                                     flows_to_trace, replay_labels)
from repro.errors import ConfigError
from repro.net.scenarios import PhaseSpan, ScenarioTrace
from repro.net.traces import KEY_COLUMN_NAMES, Trace
from repro.serving.cache import (CacheStats, FlowDecisionCache,
                                 TwoLevelDecisionCache)
from repro.serving.dispatcher import FlushStats, ShardedDispatcher
from repro.serving.openloop import (AimdAdmission, NoAdmission, OpenLoopPump,
                                    OpenLoopReport, TailDropAdmission,
                                    build_open_loop_report)
from repro.serving.parallel import ParallelDispatcher

DEFAULT_PAYLOAD_BYTES = 60     # TwoStageRuntime's raw_bytes default

# Decision-cache modes: no cache / exact per-replica L1 / L1 plus a
# per-replica quantized L2 (verify-on-hit, never decision-changing).
CACHE_MODES = ("off", "l1", "l1+l2")


# ---------------------------------------------------------------------------
# Lookup-backend registry
# ---------------------------------------------------------------------------

class Registry:
    """Name -> entry map with typed lookup errors.

    ``config_field`` names the :class:`EngineConfig` field a failed lookup
    reports, so a typo'd ``lookup_backend="tacm"`` raises a
    :class:`~repro.errors.ConfigError` listing the registered choices.
    """

    def __init__(self, config_field: str):
        self.config_field = config_field
        self._entries: dict[str, Any] = {}

    def register(self, name: str, entry, *, overwrite: bool = False):
        if not overwrite and name in self._entries:
            raise ConfigError(self.config_field, name,
                              reason="already registered "
                                     "(pass overwrite=True to replace)")
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str):
        if isinstance(name, str) and name in self._entries:
            return self._entries[name]
        raise ConfigError(self.config_field, name, allowed=self.names())

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries


@dataclass(frozen=True)
class LookupBackend:
    """One pluggable model-lookup backend.

    ``apply(replica)`` configures a freshly built replica to serve this
    backend — the built-ins call ``replica.set_lookup_backend(name)``; a
    custom backend can do anything that leaves decisions bit-identical.
    """

    name: str
    apply: Callable[[Any], None]


lookup_backends = Registry("lookup_backend")


def register_lookup_backend(name: str, apply=None, *, overwrite: bool = False):
    """Register a lookup backend under ``EngineConfig(lookup_backend=name)``.

    Without ``apply`` the replica's own ``set_lookup_backend(name)`` is used,
    which only accepts the core backends — so a genuinely new backend passes
    an ``apply`` that wires its execution path into the replica.
    """
    if apply is None:
        def apply(replica, _name=name):
            replica.set_lookup_backend(_name)
    return lookup_backends.register(name, LookupBackend(name, apply),
                                    overwrite=overwrite)


for _name in LOOKUP_BACKENDS:
    register_lookup_backend(_name)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def _check_choice(config_field: str, value, table) -> None:
    if not isinstance(value, str) or value not in table:
        raise ConfigError(config_field, value, allowed=tuple(sorted(table)))


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`PegasusEngine` deployment is, in one place.

    Grouped knobs (each previously validated somewhere different):

    - **runtime** — ``runtime`` kind (``"windowed"`` | ``"two_stage"``),
      ``feature_mode`` (``windowed`` only: ``two_stage`` builds no
      features), per-replica register ``capacity``;
    - **lookup** — ``lookup_backend`` (registry; ``"index"`` |
      ``"tcam-pruned"`` built in, bit-identical; ``two_stage`` serves
      ``"index"`` only);
    - **chunking** — ``batch_size``, the open-loop drain cap: the most
      admitted packets one ``serve(mode="open")`` chunk serves. Closed-loop
      replays on every topology step registers in
      :data:`~repro.dataplane.runtime.REGISTER_STEP_ROWS` spans whatever it
      says (where the cuts fall never changes a decision);
    - **cache** — ``decision_cache`` mode (``"off" | "l1" | "l1+l2"``),
      one cache per replica at the cache classes' default sizes;
      ``windowed`` only (``two_stage`` has no cache);
    - **topology** — ``local`` (one replica, in-process), ``sharded``
      (N replicas replayed serially, modeled parallel wall clock) or
      ``parallel`` (N persistent worker processes, each handed its whole
      shard through shared memory, measured wall clock), with ``n_workers``
      replicas;
    - **open loop** — ``admission`` policy (``"none"`` | ``"tail-drop"`` |
      ``"aimd"``), ingress ``queue_capacity``, the ``p99_target_ms``
      latency SLO the AIMD throttle (and the report's ``meets_target``) is
      judged against, and ``time_scale`` (wall seconds per trace second
      when pacing ``serve(mode="open")``; 0 replays as fast as possible,
      deterministically).

    Frozen and validated once here — every downstream constructor then
    receives values it can trust: choice fields must be strings, integer
    fields integers and float fields finite real numbers (NumPy numbers
    pass, ``bool`` does not). All errors are
    :class:`~repro.errors.ConfigError` s naming the field and its allowed
    values.
    """

    runtime: str = "windowed"
    feature_mode: str = "stats"
    capacity: int = 1_000_000
    lookup_backend: str = "index"
    batch_size: int = 256
    decision_cache: str = "off"
    topology: str = "local"
    n_workers: int = 1
    admission: str = "none"
    queue_capacity: int = 1024
    p99_target_ms: float | None = None
    time_scale: float = 0.0

    def __post_init__(self):
        _check_choice("runtime", self.runtime, RUNTIME_BUILDERS)
        lookup_backends.get(self.lookup_backend)
        if self.runtime == "two_stage" and self.lookup_backend == "tcam-pruned":
            raise ConfigError("lookup_backend", self.lookup_backend,
                              reason="two_stage serves by index only")
        _check_choice("topology", self.topology, TOPOLOGY_BUILDERS)
        _check_choice("admission", self.admission, ADMISSION_BUILDERS)
        _check_choice("feature_mode", self.feature_mode, ("seq", "stats"))
        _check_choice("decision_cache", self.decision_cache, CACHE_MODES)
        if self.runtime == "two_stage":
            if self.decision_cache != "off":
                raise ConfigError("decision_cache", self.decision_cache,
                                  allowed=("off",),
                                  reason="two_stage has no decision cache")
            if self.feature_mode != "stats":
                raise ConfigError("feature_mode", self.feature_mode,
                                  allowed=("stats",),
                                  reason="two_stage builds no features")
        for name, lo in (("capacity", 1), ("n_workers", 1),
                         ("batch_size", 1), ("queue_capacity", 1)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < lo):
                raise ConfigError(name, value, allowed=f"an integer >= {lo}")
        # Chained compares: NaN fails both bounds, infinity the upper one.
        if self.p99_target_ms is not None and not (
                _is_real(self.p99_target_ms)
                and 0 < self.p99_target_ms < math.inf):
            raise ConfigError("p99_target_ms", self.p99_target_ms,
                              allowed="finite > 0 (milliseconds) or None")
        if not (_is_real(self.time_scale) and 0 <= self.time_scale < math.inf):
            raise ConfigError("time_scale", self.time_scale,
                              allowed="finite >= 0 (0 = as fast as possible)")
        if self.topology == "local" and self.n_workers != 1:
            raise ConfigError("n_workers", self.n_workers, allowed="1",
                              reason="topology='local' runs exactly one "
                                     "replica; use 'sharded' or 'parallel' "
                                     "to scale out")

    def make_cache(self) -> FlowDecisionCache | TwoLevelDecisionCache | None:
        """A fresh per-replica decision cache (None when disabled)."""
        if self.decision_cache == "off":
            return None
        if self.decision_cache == "l1":
            return FlowDecisionCache()
        return TwoLevelDecisionCache()


def _resolve_config(config: EngineConfig | None, overrides: dict
                    ) -> EngineConfig:
    """``(config, **overrides)`` -> one validated EngineConfig."""
    if config is None:
        return EngineConfig(**overrides)
    if not isinstance(config, EngineConfig):
        raise ConfigError("config", type(config).__name__,
                          allowed="an EngineConfig (or None + keyword "
                                  "overrides)")
    return replace(config, **overrides) if overrides else config


# ---------------------------------------------------------------------------
# Runtime kinds: build(source, config) -> replica
# ---------------------------------------------------------------------------

def _build_windowed(source, config: EngineConfig):
    return WindowedClassifierRuntime(
        source, feature_mode=config.feature_mode, capacity=config.capacity,
        decision_cache=config.make_cache())


# Replica knobs the engine owns: they come from EngineConfig, never from a
# two-stage source mapping (a duplicate would otherwise collide at build).
_ENGINE_OWNED_FIELDS = ("capacity", "batch_size")
# Replica knobs a from_factory factory owns: the engine cannot apply them.
_FACTORY_OWNED_FIELDS = ("capacity", "feature_mode", "decision_cache")


def _two_stage_spec(source) -> dict:
    try:
        spec = dict(source)
    except TypeError:
        raise ConfigError(
            "runtime", "two_stage",
            reason=f"source must be a mapping of TwoStageRuntime fields "
                   f"(extractor_tree, slot_values, n_classes, ...), got "
                   f"{type(source).__name__}") from None
    overlap = sorted(set(spec) & set(_ENGINE_OWNED_FIELDS))
    if overlap:
        raise ConfigError(
            "runtime", "two_stage",
            reason=f"source field(s) {overlap} are EngineConfig knobs — "
                   "set them on the config instead")
    return spec


def _build_two_stage(source, config: EngineConfig):
    return TwoStageRuntime(capacity=config.capacity,
                           **_two_stage_spec(source))


RUNTIME_BUILDERS = MappingProxyType({
    "windowed": _build_windowed,
    "two_stage": _build_two_stage,
})


# ---------------------------------------------------------------------------
# Topologies: build(replica_factory, config, payload_bytes) -> dispatcher
# ---------------------------------------------------------------------------

def _build_in_process(replica_factory, config: EngineConfig,
                      payload_bytes: int | None) -> ShardedDispatcher:
    """``local`` and ``sharded``: ``n_workers`` in-process replicas, replayed
    serially (one replica replays the trace whole, with no shard split) in
    ``REGISTER_STEP_ROWS`` spans: there is no chunk to size."""
    return ShardedDispatcher(runtime_factory=replica_factory,
                             n_shards=config.n_workers)


def _build_parallel(replica_factory, config: EngineConfig,
                    payload_bytes: int | None) -> ParallelDispatcher:
    """``parallel``: ``n_workers`` persistent worker processes over shared
    memory."""
    return ParallelDispatcher(runtime_factory=replica_factory,
                              n_workers=config.n_workers,
                              payload_bytes=payload_bytes)


TOPOLOGY_BUILDERS = MappingProxyType({
    "local": _build_in_process,
    "sharded": _build_in_process,
    "parallel": _build_parallel,
})


# ---------------------------------------------------------------------------
# Admission policies: build(config) -> a fresh policy per open-loop serve
# ---------------------------------------------------------------------------

def _build_none_policy(config: EngineConfig):
    return NoAdmission()


def _build_tail_drop_policy(config: EngineConfig):
    return TailDropAdmission(config.queue_capacity)


def _build_aimd_policy(config: EngineConfig):
    if config.p99_target_ms is None:
        raise ConfigError(
            "p99_target_ms", None, allowed="> 0 (milliseconds)",
            reason="admission='aimd' throttles against a latency target")
    return AimdAdmission(config.queue_capacity,
                         config.p99_target_ms / 1e3)


ADMISSION_BUILDERS = MappingProxyType({
    "none": _build_none_policy,
    "tail-drop": _build_tail_drop_policy,
    "aimd": _build_aimd_policy,
})


# ---------------------------------------------------------------------------
# Replica factories (picklable, for spawn-started workers)
# ---------------------------------------------------------------------------

class _KindFactory:
    """Build one replica from (runtime kind, source, config), by kind name.

    A class rather than a closure so an engine-built factory can cross a
    ``spawn`` process boundary whenever its source pickles: the kind's
    builder is looked up in :data:`RUNTIME_BUILDERS` inside the worker.
    """

    def __init__(self, kind_name: str, source, config: EngineConfig):
        self.kind_name = kind_name
        self.source = source
        self.config = config

    def __call__(self):
        return RUNTIME_BUILDERS[self.kind_name](self.source, self.config)


class _ModelRuntimeFactory:
    """Build a replica through ``model.make_runtime``, config applied on top.

    A class rather than a closure so ``from_model(runtime="two_stage")``
    engines stay spawn-compatible whenever the model itself pickles.
    ``raw_bytes`` is the payload width of the model's replicas, read off a
    one-slot probe replica: the parallel topology ships that many payload
    bytes per packet.
    """

    def __init__(self, model, config: EngineConfig):
        self.model = model
        self.config = config
        self.raw_bytes = getattr(model.make_runtime(capacity=1), "raw_bytes",
                                 DEFAULT_PAYLOAD_BYTES)

    def __call__(self):
        return self.model.make_runtime(capacity=self.config.capacity)


class _ReplicaFactory:
    """Apply the configured lookup backend to each freshly built replica.

    The backend is resolved by name at call time (worker-side for process
    topologies), so this wrapper pickles whenever ``base`` does — custom
    backends registered via :func:`register_lookup_backend` must then also
    be registered in the worker's interpreter (automatic under ``fork``).
    """

    def __init__(self, base: Callable[[], Any], backend_name: str):
        self.base = base
        self.backend_name = backend_name

    def __call__(self):
        rt = self.base()
        lookup_backends.get(self.backend_name).apply(rt)
        return rt


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class ServingReport:
    """Everything one serve produced, merged into a single result.

    ``wall_seconds`` is the measured wall clock of the serve call (workers
    are started beforehand, so it measures serving, not setup);
    ``shard_seconds`` is the per-replica replay breakdown (one entry for
    ``local``, one per shard/worker otherwise — replay only, excluding IPC).
    ``flush_stats`` counts this serve's register steps over all replicas
    (``REGISTER_STEP_ROWS`` spans on every topology, at least one per
    open-loop chunk); ``cache_stats`` aggregates the replicas'
    *lifetime* decision-cache counters. ``decisions`` are columns
    (``decisions.predicted`` etc.); ``list(decisions)`` materialises
    :class:`~repro.dataplane.decisions.PacketDecision` objects.
    """

    decisions: DecisionBatch
    n_packets: int
    wall_seconds: float
    topology: str
    n_workers: int
    runtime: str
    lookup_backend: str
    shard_seconds: list = field(default_factory=list)
    flush_stats: FlushStats = field(default_factory=FlushStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def n_decisions(self) -> int:
        return len(self.decisions)

    @property
    def pps(self) -> float:
        """Measured packets/sec of this serve."""
        return self.n_packets / max(self.wall_seconds, 1e-9)

    @property
    def accuracy(self) -> float | None:
        """Fraction of labelled decisions that were correct (None when the
        serve carried no ground-truth labels)."""
        labels = self.decisions.flow_label
        labelled = labels >= 0
        if not labelled.any():
            return None
        return float(np.mean(self.decisions.predicted[labelled]
                             == labels[labelled]))

    def summary(self) -> dict:
        """Scalar view for logs / bench JSON (decisions elided)."""
        return {
            "topology": self.topology, "n_workers": self.n_workers,
            "runtime": self.runtime, "lookup_backend": self.lookup_backend,
            "n_packets": self.n_packets, "n_decisions": self.n_decisions,
            "wall_seconds": self.wall_seconds, "pps": self.pps,
            "accuracy": self.accuracy,
            "cache_hit_rate": self.cache_stats.hit_rate,
            "cache_exact_hits": self.cache_stats.exact_hits,
            "cache_approx_hits": self.cache_stats.approx_hits,
            "cache_l2_skipped": self.cache_stats.l2_skipped,
            "flushes": self.flush_stats.total,
        }


@dataclass
class ScenarioServingReport:
    """One scenario serve, broken down by ground-truth phase.

    ``overall`` merges the whole replay (decisions in global trace order);
    ``phases`` pairs each :class:`~repro.net.scenarios.PhaseSpan` with that
    phase's own :class:`ServingReport` — accuracy, pps, flush stats, and the
    *per-phase delta* of the replicas' decision-cache counters (so an
    attack-flood phase shows its own hit rate, not the run's lifetime
    average).
    """

    scenario: str
    seed: int | None
    overall: ServingReport
    phases: list = field(default_factory=list)   # [(PhaseSpan, ServingReport)]

    def phase(self, name: str) -> ServingReport:
        """The report of one phase, by phase name."""
        for span, report in self.phases:
            if span.name == name:
                return report
        raise KeyError(f"scenario {self.scenario!r} has no phase {name!r}; "
                       f"phases: {[s.name for s, _ in self.phases]}")

    def summary(self) -> dict:
        """Scalar view for logs / bench JSON, one row per phase."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "overall": self.overall.summary(),
            "phases": {
                span.name: {
                    "t_start": span.t_start, "t_end": span.t_end,
                    **report.summary(),
                } for span, report in self.phases
            },
        }


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _cache_delta(after: CacheStats, before: CacheStats) -> CacheStats:
    """Counter growth between two readings (one phase's own activity)."""
    return CacheStats(hits=after.hits - before.hits,
                      misses=after.misses - before.misses,
                      evictions=after.evictions - before.evictions,
                      approx_hits=after.approx_hits - before.approx_hits,
                      l2_skipped=after.l2_skipped - before.l2_skipped)


class _SubServes:
    """Running totals over the sub-serves of one report — a scenario's
    phases or an open-loop run's chunks, all against the same replicas.

    Each :meth:`add` folds in the serve the dispatcher just finished: its
    decisions move from sub-trace to global positions, its flush counts and
    per-shard seconds are summed. Cache counters are lifetime readings
    (never mutated once taken), so activity is the difference of two.
    """

    def __init__(self, dispatcher):
        self._dispatcher = dispatcher
        self.flush_stats = FlushStats()
        self.shard_seconds: list[float] = []
        self._cache_first = self._cache_mark = dispatcher.cache_stats

    def add(self, decisions: DecisionBatch, positions: np.ndarray
            ) -> DecisionBatch:
        """``positions[i]`` is the global position of sub-trace packet i;
        returns the decisions at global positions."""
        self.flush_stats.merge(self._dispatcher.flush_stats)
        seconds = self._dispatcher.shard_seconds
        self.shard_seconds = (
            [a + b for a, b in zip(self.shard_seconds, seconds)]
            if self.shard_seconds else list(seconds))
        return decisions.remap(positions)

    def phase_cache_stats(self) -> CacheStats:
        """Cache activity since the previous call (one phase's own)."""
        before, self._cache_mark = (self._cache_mark,
                                    self._dispatcher.cache_stats)
        return _cache_delta(self._cache_mark, before)

    @property
    def cache_stats(self) -> CacheStats:
        """Cache activity over all sub-serves so far."""
        return _cache_delta(self._dispatcher.cache_stats, self._cache_first)


class PegasusEngine:
    """The serving facade: one validated config, one build path.

    Construct from a compiled artifact (:meth:`from_compiled`), a trained
    :class:`~repro.models.base.TrafficModel` (:meth:`from_model`), a
    two-stage spec mapping (``PegasusEngine(source={...},
    runtime="two_stage")``), or an arbitrary replica factory
    (:meth:`from_factory`). The engine builds the configured runtime kind,
    topology and admission policy from the module's closed tables, applies
    the registered lookup backend to every replica, owns the dispatcher's
    lifecycle (``start()``/``close()``/context manager — safe to call
    unconditionally), and serves through **one** polymorphic entry point:

    - :meth:`serve` — dispatches on workload shape (a list of labelled
      :class:`~repro.net.flow.Flow` s, a time-ordered
      :class:`~repro.net.traces.Trace`, ``Trace.to_columns()``-style
      per-packet arrays, or a scenario) and on ``mode``: ``"closed"``
      replays as fast as the stack drains; ``"open"`` paces packets by
      their own timestamps through the configured admission policy and
      reports decision latency / queue depth / shed packets.

    ``close()`` discards replica state (registers, caches); the next serve
    starts cold, exactly like the dispatchers it wraps.
    """

    def __init__(self, source=None, config: EngineConfig | None = None, *,
                 runtime_factory: Callable[[], Any] | None = None,
                 **overrides):
        if (source is None) == (runtime_factory is None):
            raise ConfigError(
                "source", source,
                reason="exactly one of source / runtime_factory is required")
        # _resolve_config runs EngineConfig.__post_init__, which already
        # validates runtime/lookup_backend/topology/admission.
        self.config = _resolve_config(config, overrides)
        base = runtime_factory if runtime_factory is not None \
            else _KindFactory(self.config.runtime, source, self.config)
        self._replica_factory = _ReplicaFactory(
            base, self.config.lookup_backend)
        # Payload bytes shipped per packet to two-stage replicas: the spec's
        # raw_bytes, or what a from_model probe replica reported.
        payload = None
        if self.config.runtime == "two_stage":
            payload = (_two_stage_spec(source).get("raw_bytes",
                                                   DEFAULT_PAYLOAD_BYTES)
                       if source is not None else
                       getattr(runtime_factory, "raw_bytes",
                               DEFAULT_PAYLOAD_BYTES))
        self.payload_bytes = payload
        self._driver = TOPOLOGY_BUILDERS[self.config.topology](
            self._replica_factory, self.config, payload)

    # -- builders ------------------------------------------------------------

    @classmethod
    def from_compiled(cls, compiled, config: EngineConfig | None = None,
                      **overrides) -> "PegasusEngine":
        """Serve a compiled artifact (a
        :class:`~repro.core.mapping.CompiledModel` or placed
        :class:`~repro.dataplane.Pipeline`) through the configured runtime
        kind."""
        return cls(source=compiled, config=config, **overrides)

    @classmethod
    def from_model(cls, model, config: EngineConfig | None = None,
                   **overrides) -> "PegasusEngine":
        """Serve a trained-and-compiled :class:`TrafficModel`.

        ``runtime="windowed"`` (default) serves ``model.compiled``;
        ``runtime="two_stage"`` builds each replica through the model's own
        ``make_runtime`` (the CNN-L flow-scalability deployment), with the
        config's capacity applied on top.
        """
        config = _resolve_config(config, overrides)
        compiled = getattr(model, "compiled", None)
        if compiled is None:
            raise ConfigError(
                "source", type(model).__name__,
                reason="model must be trained and compiled "
                       "(compile_dataplane) before serving")
        if config.runtime == "two_stage":
            if not hasattr(model, "make_runtime"):
                raise ConfigError(
                    "runtime", "two_stage",
                    reason=f"{type(model).__name__} does not expose "
                           "make_runtime; use runtime='windowed'")
            return cls(runtime_factory=_ModelRuntimeFactory(model, config),
                       config=config)
        return cls(source=compiled, config=config)

    @classmethod
    def from_factory(cls, runtime_factory: Callable[[], Any],
                     config: EngineConfig | None = None,
                     **overrides) -> "PegasusEngine":
        """Serve replicas from an arbitrary zero-arg factory (escape hatch).

        The config's lookup backend, batch size, topology and open-loop
        fields are applied; the factory's replicas own their register
        ``capacity``, ``feature_mode`` and decision cache, so a config that
        sets one of those away from its default raises a
        :class:`~repro.errors.ConfigError` naming it (it would be ignored).
        """
        config = _resolve_config(config, overrides)
        defaults = EngineConfig()
        for name in _FACTORY_OWNED_FIELDS:
            value = getattr(config, name)
            if value != getattr(defaults, name):
                raise ConfigError(
                    name, value, allowed=(getattr(defaults, name),),
                    reason="from_factory replicas are built by the factory; "
                           "configure this on the replica instead")
        return cls(runtime_factory=runtime_factory, config=config)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Build replicas (forking workers for ``parallel``); idempotent."""
        self._driver.start()

    def close(self) -> None:
        """Tear replicas down, discarding their state; always safe."""
        self._driver.close()

    def __enter__(self) -> "PegasusEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def serve(self, workload, *, mode: str = "closed",
              labels: np.ndarray | None = None, seed: int | None = None,
              flows_scale: float = 1.0, max_gap: float | None = None):
        """Serve any workload through one polymorphic entry point.

        ``workload`` dispatches on shape:

        - a :class:`~repro.net.scenarios.Scenario` (materialized here with
          ``seed`` / ``flows_scale``) or already materialized
          :class:`~repro.net.scenarios.ScenarioTrace` — closed mode returns
          a per-phase :class:`ScenarioServingReport`;
        - a list/tuple of labelled :class:`~repro.net.flow.Flow` s;
        - a time-ordered :class:`~repro.net.traces.Trace` (``labels``
          optional, one per packet);
        - a ``Trace.to_columns()``-style dict of per-packet arrays, wrapped
          as a :class:`~repro.net.traces.Trace` here (no packet objects).

        Scenarios and flow lists carry their own labels: passing ``labels``
        with one raises a :class:`~repro.errors.ConfigError`.

        ``mode="closed"`` (default) replays as fast as the stack drains —
        the throughput benchmark. ``mode="open"`` pushes packets through the
        configured admission policy into a bounded ingress queue, paced by
        the workload's own timestamps at ``config.time_scale`` (0 = as fast
        as possible, deterministically), and returns an
        :class:`~repro.serving.openloop.OpenLoopReport` recording decision
        latency percentiles, the queue-depth timeline, and exactly which
        packets were shed. With ``admission="none"`` and ``time_scale=0``
        the open-loop decision stream is bit-identical to closed mode.
        ``max_gap`` (open mode) clips any single paced inter-arrival gap to
        that many wall seconds, bounding idle time on sparse traces.
        """
        if mode not in ("closed", "open"):
            raise ConfigError("mode", mode, allowed=("closed", "open"))
        kind = self._classify_workload(workload)
        if labels is not None and kind in ("scenario", "scenario_trace",
                                           "flows"):
            raise ConfigError(
                "labels", len(labels),
                reason="scenario and flow-list workloads carry their own "
                       "per-packet labels")
        if kind == "scenario":
            workload = workload.generate(seed=seed, flows_scale=flows_scale)
            kind = "scenario_trace"
        elif kind == "flows":
            workload, labels = flows_to_trace(workload)
            kind = "trace"
        elif kind == "columns":
            missing = [c for c in ("ts", "length", *KEY_COLUMN_NAMES)
                       if c not in workload]
            if missing:
                raise ValueError(f"missing serve columns: {missing}")
            workload, kind = Trace.from_columns(workload), "trace"
        if kind == "trace":
            labels = replay_labels(labels, len(workload))
        if mode == "open":
            if kind != "scenario_trace":
                workload = self._as_scenario_trace(workload, labels)
            return self._serve_open(workload, max_gap=max_gap)
        if kind == "scenario_trace":
            return self._serve_scenario(workload, seed=seed)
        return self._serve_trace(workload, labels)

    @staticmethod
    def _classify_workload(workload) -> str:
        """Map a workload object to its serve path, by shape."""
        if hasattr(workload, "generate") and hasattr(workload, "phases"):
            return "scenario"
        if hasattr(workload, "trace") and hasattr(workload, "phases"):
            return "scenario_trace"
        if isinstance(workload, Trace) or hasattr(workload, "packets"):
            return "trace"
        if isinstance(workload, dict):
            return "columns"
        if isinstance(workload, (list, tuple)):
            return "flows"
        raise ConfigError(
            "workload", type(workload).__name__,
            allowed="Scenario | ScenarioTrace | Trace | list[Flow] | "
                    "columns dict")

    def _as_scenario_trace(self, trace: Trace, labels) -> ScenarioTrace:
        """Wrap a trace as a single-phase ScenarioTrace so the open-loop
        pump has timestamps and a phase span to pace/report."""
        n = len(trace)
        ts0 = trace.ts[0] if n else 0.0
        ts1 = trace.ts[-1] if n else 0.0
        span = PhaseSpan("trace", float(ts0), float(ts1), 0, n)
        return ScenarioTrace(scenario="<trace>", seed=None, trace=trace,
                             labels=labels, phases=(span,))

    # -- serve internals -----------------------------------------------------

    def _serve_trace(self, trace: Trace, labels: np.ndarray | None = None
                     ) -> ServingReport:
        """Replay one time-ordered trace (per-packet ``labels`` optional)."""
        return self._serve(
            len(trace), lambda: self._driver.serve_trace(trace, labels=labels))

    def _serve_scenario(self, workload: ScenarioTrace,
                        seed: int | None = None) -> ScenarioServingReport:
        """Replay a time-varying scenario, reported per ground-truth phase.

        Each phase is served as its own call against the *same* replicas —
        flow registers and caches carry across phase boundaries exactly as
        they would in one continuous replay, and step boundaries never
        change decisions — so the concatenated decision stream is
        bit-identical to a single trace serve of the whole workload
        (asserted by the differential harness) while every phase still gets
        its own accuracy/pps/cache breakdown. Phases declaring
        ``l2_insert=False`` close the two-level cache's L2 admission gate
        for their span (cold phases skip the box-certificate insert work).
        """
        self.start()
        totals = _SubServes(self._driver)
        phases: list = []
        parts: list[DecisionBatch] = []
        n_packets, wall = 0, 0.0
        try:
            for span in workload.phases:
                self._driver.set_l2_admission(getattr(span, "l2_insert", True))
                report = self._serve_trace(
                    workload.trace[span.start:span.stop],
                    workload.labels[span.start:span.stop])
                report.decisions = totals.add(
                    report.decisions, np.arange(span.start, span.stop))
                report.cache_stats = totals.phase_cache_stats()
                phases.append((span, report))
                parts.append(report.decisions)
                n_packets += report.n_packets
                wall += report.wall_seconds
        finally:
            self._driver.set_l2_admission(True)
        return ScenarioServingReport(
            scenario=getattr(workload, "scenario", "<trace>"),
            seed=getattr(workload, "seed", seed),
            overall=self._report(DecisionBatch.concat(parts), n_packets,
                                 wall, totals),
            phases=phases)

    def _serve_open(self, workload: ScenarioTrace,
                    max_gap: float | None = None) -> OpenLoopReport:
        """Pump a materialized workload open-loop through the admission
        policy and the configured dispatcher.

        The pump feeds admitted packets in arrival order, the consumer
        drains chunks of at most ``config.batch_size`` through the normal
        serve path, each one register step per replica it reaches — and
        because step boundaries never change decisions,
        the concatenated decision stream over the admitted subsequence is
        bit-identical to a closed-loop replay of exactly those packets
        (``verify_open_loop`` in the differential harness asserts this
        against the scalar reference).
        """
        self.start()
        config = self.config
        policy = ADMISSION_BUILDERS[config.admission](config)
        labels = np.asarray(workload.labels)
        trace = workload.trace
        totals = _SubServes(self._driver)

        def serve_chunk(idx: np.ndarray) -> DecisionBatch:
            return totals.add(self._driver.serve_trace(trace.take(idx),
                                                       labels=labels[idx]),
                              idx)

        offsets = None
        if config.time_scale > 0:
            offsets = workload.arrival_offsets(config.time_scale,
                                               max_gap=max_gap)
        pump = OpenLoopPump(len(trace), offsets, serve_chunk, policy,
                            drain_max=config.batch_size)
        result = pump.run()
        return build_open_loop_report(
            result, config=config,
            serving=self._report(result.decisions, int(result.served),
                                 result.wall_seconds, totals),
            ts=workload.ts_column(), phases=workload.phases,
            scenario=getattr(workload, "scenario", "<trace>"),
            seed=getattr(workload, "seed", None),
            admission=config.admission, time_scale=config.time_scale,
            p99_target_ms=config.p99_target_ms)

    def _serve(self, n_packets: int, run: Callable[[], DecisionBatch]
               ) -> ServingReport:
        """One timed dispatcher serve, reported with the dispatcher's stats."""
        self.start()    # replica build / worker fork lands outside the clock
        started = time.perf_counter()
        decisions = run()
        wall = time.perf_counter() - started
        return self._report(decisions, n_packets, wall, self._driver)

    def _report(self, decisions: DecisionBatch, n_packets: int, wall: float,
                stats) -> ServingReport:
        """A :class:`ServingReport` of this deployment; ``stats`` is the
        dispatcher (one serve) or a :class:`_SubServes` (many of them)."""
        config = self.config
        return ServingReport(
            decisions=decisions, n_packets=n_packets, wall_seconds=wall,
            topology=config.topology, n_workers=config.n_workers,
            runtime=config.runtime, lookup_backend=config.lookup_backend,
            shard_seconds=list(stats.shard_seconds),
            flush_stats=stats.flush_stats, cache_stats=stats.cache_stats)


__all__ = [
    "ADMISSION_BUILDERS",
    "CACHE_MODES",
    "EngineConfig",
    "LookupBackend",
    "OpenLoopReport",
    "PegasusEngine",
    "RUNTIME_BUILDERS",
    "Registry",
    "ScenarioServingReport",
    "ServingReport",
    "TOPOLOGY_BUILDERS",
    "lookup_backends",
    "register_lookup_backend",
]
