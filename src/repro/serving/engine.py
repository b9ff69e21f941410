"""`PegasusEngine`: one config, one build path, pluggable runtimes/topologies.

Before this facade every consumer hand-wired its own serving stack —
compiler output -> runtime -> :class:`BatchScheduler` -> cache -> one of the
dispatchers — with the cross-cutting knobs (``lookup_backend``,
``decision_cache``, ``batch_size``, ``n_workers``) validated in five
different places. The engine replaces that with a single declarative
deployment surface, the shape production dataplane-serving systems expose
over heterogeneous fast paths:

- :class:`EngineConfig` — one frozen dataclass naming the runtime kind,
  feature mode, lookup backend, scheduler/AIMD settings, cache settings, and
  topology (``local | sharded | parallel`` with ``n_workers``); validated
  once at construction with typed :class:`~repro.errors.ConfigError` s.
- :class:`PegasusEngine` — owns the full lifecycle: ``from_model(...)`` /
  ``from_compiled(...)`` builders, context-manager ``start()/close()``, and
  **one** polymorphic ``serve(workload, mode="closed"|"open")`` entry point
  that dispatches on workload shape (flows / trace / columns / scenario)
  and, in open mode, pumps the workload through a pluggable admission
  policy (``none | tail-drop | aimd`` built in) into a bounded ingress
  queue paced by the trace's own timestamps.
- :class:`ServingReport` — one merged result per serve: decisions, wall
  clock, per-shard breakdown, flush stats, cache stats, derived pps and
  accuracy — replacing the old ad-hoc tuples and attribute-poking.

Internally three small registries back the facade, so a new runtime kind,
lookup backend, or dispatcher topology plugs in with **one registration**
instead of edits to the dispatcher and both runtimes::

    from repro.serving import engine

    engine.register_lookup_backend("index-v2", apply=my_apply_fn)
    engine.register_topology("ring", build=my_dispatcher_builder)
    engine.register_runtime_kind("my-kind", build=my_replica_builder)

End-to-end usage::

    from repro.serving import EngineConfig, PegasusEngine

    config = EngineConfig(feature_mode="stats", batch_size=256,
                          decision_cache=True, lookup_backend="tcam",
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

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime,
                                     flows_to_trace)
from repro.errors import ConfigError
from repro.net.scenarios import PhaseSpan, ScenarioTrace
from repro.net.traces import KEY_COLUMN_NAMES, Trace
from repro.serving.cache import (CacheStats, FlowDecisionCache,
                                 TwoLevelDecisionCache)
from repro.serving.dispatcher import ShardedDispatcher
from repro.serving.openloop import (AimdAdmission, NoAdmission, OpenLoopPump,
                                    OpenLoopReport, TailDropAdmission,
                                    build_open_loop_report)
from repro.serving.parallel import ParallelDispatcher
from repro.serving.scheduler import BatchScheduler, FlushStats

DEFAULT_PAYLOAD_BYTES = 60     # TwoStageRuntime's raw_bytes default

# Decision-cache modes: no cache / exact per-worker L1 / L1 plus the shared
# quantized L2 (verify-on-hit, never decision-changing). The bools False /
# True are accepted and normalized to "off" / "l1".
CACHE_MODES = ("off", "l1", "l1+l2")


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

class Registry:
    """Name -> entry map with typed lookup errors.

    ``config_field`` names the :class:`EngineConfig` field a failed lookup
    reports, so a typo'd ``topology="paralel"`` raises a
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
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(self.config_field, name,
                              allowed=self.names()) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries


@dataclass(frozen=True)
class RuntimeKind:
    """One pluggable runtime family: ``build(source, config) -> replica``."""

    name: str
    build: Callable[[Any, "EngineConfig"], Any]


@dataclass(frozen=True)
class LookupBackend:
    """One pluggable model-lookup backend.

    ``apply(replica)`` configures a freshly built replica to serve this
    backend — the built-ins call ``replica.set_lookup_backend(name)``; a
    custom backend can do anything that leaves decisions bit-identical.
    """

    name: str
    apply: Callable[[Any], None]


@dataclass(frozen=True)
class AdmissionPolicySpec:
    """One pluggable open-loop admission policy.

    ``build(config) -> policy`` constructs a fresh
    :class:`~repro.serving.openloop.AdmissionPolicy` for one open-loop
    serve from the engine's validated config (``queue_capacity``,
    ``p99_target_ms`` are the knobs the built-ins consume).
    """

    name: str
    build: Callable[["EngineConfig"], Any]


runtime_kinds = Registry("runtime")
lookup_backends = Registry("lookup_backend")
topologies = Registry("topology")
admission_policies = Registry("admission")


def register_runtime_kind(name: str, build, *, overwrite: bool = False):
    """Register a runtime family under ``EngineConfig(runtime=name)``."""
    return runtime_kinds.register(name, RuntimeKind(name, build),
                                  overwrite=overwrite)


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


def register_topology(name: str, build, *, overwrite: bool = False):
    """Register a dispatch topology under ``EngineConfig(topology=name)``.

    ``build(replica_factory, config, payload_bytes)`` returns an object with
    the dispatcher protocol — ``start() / close() / serve_trace(trace,
    labels=, keys=) / serve_columns(cols, labels=) / set_l2_admission(admit)``
    and the per-serve ``shard_seconds`` / ``flush_stats`` / ``cache_stats``
    (:class:`~repro.serving.ShardedDispatcher` and its subclasses have it).
    """
    return topologies.register(name, build, overwrite=overwrite)


def register_admission_policy(name: str, build, *, overwrite: bool = False):
    """Register an open-loop admission policy under
    ``EngineConfig(admission=name)``.

    ``build(config) -> policy`` returns a fresh
    :class:`~repro.serving.openloop.AdmissionPolicy` per open-loop serve.
    Same ``overwrite=`` semantics as the other registries.
    """
    return admission_policies.register(name, AdmissionPolicySpec(name, build),
                                       overwrite=overwrite)


def _build_none_policy(config: "EngineConfig"):
    return NoAdmission()


def _build_tail_drop_policy(config: "EngineConfig"):
    return TailDropAdmission(config.queue_capacity)


def _build_aimd_policy(config: "EngineConfig"):
    if config.p99_target_ms is None:
        raise ConfigError(
            "p99_target_ms", None, allowed="> 0 (milliseconds)",
            reason="admission='aimd' throttles against a latency target")
    return AimdAdmission(config.queue_capacity,
                         config.p99_target_ms / 1e3)


register_admission_policy("none", _build_none_policy)
register_admission_policy("tail-drop", _build_tail_drop_policy)
register_admission_policy("aimd", _build_aimd_policy)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`PegasusEngine` deployment is, in one place.

    Grouped knobs (each previously validated somewhere different):

    - **runtime** — ``runtime`` kind (registry), ``feature_mode``,
      ``window``, per-replica register ``capacity``;
    - **lookup** — ``lookup_backend`` (registry; ``"index"`` | ``"tcam"``
      built in, bit-identical);
    - **scheduler** — ``batch_size``, trace-time ``timeout``, AIMD
      ``latency_target`` with ``min_batch_size`` / ``max_batch_size``;
    - **cache** — ``decision_cache`` mode (``"off" | "l1" | "l1+l2"``;
      the bools ``False`` / ``True`` normalize to ``"off"`` / ``"l1"``)
      + per-replica exact ``cache_capacity``, and for ``"l1+l2"`` the
      shared approximate store's ``l2_capacity`` (quantized buckets) and
      ``l2_quantize_shift`` (feature bits dropped by the bucket key);
    - **topology** — ``local`` (one replica, in-process), ``sharded``
      (N replicas replayed serially, modeled parallel wall clock) or
      ``parallel`` (N persistent worker processes fed through
      shared-memory rings, measured wall clock), with ``n_workers``
      replicas, worker ``start_method``, ``payload_bytes`` shipped per
      packet to two-stage replicas, and the ring geometry: ``ring_depth``
      in-flight chunks per worker and ``ring_chunk`` rows per ring slot
      (``None`` sizes a slot to the batch, min 256 rows);
    - **open loop** — ``admission`` policy (registry; ``"none"`` |
      ``"tail-drop"`` | ``"aimd"`` built in), ingress ``queue_capacity``,
      the ``p99_target_ms`` latency SLO the AIMD throttle (and the
      report's ``meets_target``) is judged against, and ``time_scale``
      (wall seconds per trace second when pacing ``serve(mode="open")``;
      0 replays as fast as possible, deterministically).

    Frozen and validated once here — every downstream constructor then
    receives values it can trust. All validation errors are
    :class:`~repro.errors.ConfigError` s naming the field and its allowed
    values.
    """

    runtime: str = "windowed"
    feature_mode: str = "stats"
    window: int = 8
    capacity: int = 1_000_000
    lookup_backend: str = "index"
    batch_size: int = 256
    timeout: float | None = None
    latency_target: float | None = None
    min_batch_size: int = 1
    max_batch_size: int | None = None
    decision_cache: bool | str = False
    cache_capacity: int = 65536
    l2_capacity: int = 4096
    l2_quantize_shift: int = 6
    topology: str = "local"
    n_workers: int = 1
    payload_bytes: int | None = None
    start_method: str | None = None
    ring_depth: int = 4
    ring_chunk: int | None = None
    admission: str = "none"
    queue_capacity: int = 1024
    p99_target_ms: float | None = None
    time_scale: float = 0.0

    def __post_init__(self):
        runtime_kinds.get(self.runtime)
        lookup_backends.get(self.lookup_backend)
        topologies.get(self.topology)
        admission_policies.get(self.admission)
        if self.feature_mode not in ("seq", "stats"):
            raise ConfigError("feature_mode", self.feature_mode,
                              allowed=("seq", "stats"))
        # Normalize the cache mode once: bools stay accepted for
        # back-compat, every downstream check then compares strings.
        mode = self.decision_cache
        if mode is False:
            mode = "off"
        elif mode is True:
            mode = "l1"
        if mode not in CACHE_MODES:
            raise ConfigError("decision_cache", self.decision_cache,
                              allowed=CACHE_MODES + (False, True))
        object.__setattr__(self, "decision_cache", mode)
        for name, lo in (("window", 2), ("capacity", 1), ("n_workers", 1),
                         ("cache_capacity", 1), ("l2_capacity", 1),
                         ("l2_quantize_shift", 0), ("queue_capacity", 1),
                         ("ring_depth", 1)):
            if getattr(self, name) < lo:
                raise ConfigError(name, getattr(self, name), allowed=f">= {lo}")
        if self.p99_target_ms is not None and self.p99_target_ms <= 0:
            raise ConfigError("p99_target_ms", self.p99_target_ms,
                              allowed="> 0 (milliseconds) or None")
        if self.time_scale < 0:
            raise ConfigError("time_scale", self.time_scale,
                              allowed=">= 0 (0 replays as fast as possible)")
        if self.topology == "local" and self.n_workers != 1:
            raise ConfigError("n_workers", self.n_workers, allowed="1",
                              reason="topology='local' runs exactly one "
                                     "replica; use 'sharded' or 'parallel' "
                                     "to scale out")
        if self.payload_bytes is not None and self.payload_bytes < 1:
            raise ConfigError("payload_bytes", self.payload_bytes,
                              allowed=">= 1 or None")
        if self.ring_chunk is not None and self.ring_chunk < 1:
            raise ConfigError("ring_chunk", self.ring_chunk,
                              allowed=">= 1 or None (auto: batch-sized "
                                      "slots, min 256 rows)")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ConfigError("start_method", self.start_method,
                              allowed=(None, "fork", "spawn", "forkserver"))
        self.scheduler()   # delegate batch/timeout/AIMD validation

    def scheduler(self) -> BatchScheduler:
        """The (immutable) batch scheduler this config describes."""
        return BatchScheduler(batch_size=self.batch_size,
                              timeout=self.timeout,
                              latency_target=self.latency_target,
                              min_batch_size=self.min_batch_size,
                              max_batch_size=self.max_batch_size)

    def make_cache(self) -> FlowDecisionCache | TwoLevelDecisionCache | None:
        """A fresh per-replica decision cache (None when disabled)."""
        if self.decision_cache == "off":
            return None
        if self.decision_cache == "l1":
            return FlowDecisionCache(self.cache_capacity)
        return TwoLevelDecisionCache(
            capacity=self.cache_capacity, l2_capacity=self.l2_capacity,
            l2_quantize_shift=self.l2_quantize_shift)


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
# Built-in runtime kinds
# ---------------------------------------------------------------------------

def _build_windowed(source, config: EngineConfig):
    return WindowedClassifierRuntime(
        source, feature_mode=config.feature_mode, window=config.window,
        capacity=config.capacity, batch_size=config.batch_size,
        decision_cache=config.make_cache())


# Replica knobs the engine owns: they come from EngineConfig, never from a
# two-stage source mapping (a duplicate would otherwise collide at build).
_ENGINE_OWNED_FIELDS = ("window", "capacity", "batch_size", "decision_cache")


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
    spec = _two_stage_spec(source)
    return TwoStageRuntime(
        window=config.window, capacity=config.capacity,
        batch_size=config.batch_size, decision_cache=config.make_cache(),
        **spec)


register_runtime_kind("windowed", _build_windowed)
register_runtime_kind("two_stage", _build_two_stage)
register_lookup_backend("index")
register_lookup_backend("tcam")
register_lookup_backend("tcam-pruned")


# ---------------------------------------------------------------------------
# Built-in topologies
# ---------------------------------------------------------------------------

def _build_in_process(replica_factory, config: EngineConfig,
                      payload_bytes: int | None) -> ShardedDispatcher:
    """``local`` and ``sharded``: ``n_workers`` in-process replicas, replayed
    serially (one replica replays the trace whole, with no shard split)."""
    return ShardedDispatcher(runtime_factory=replica_factory,
                             n_shards=config.n_workers,
                             scheduler=config.scheduler())


def _build_parallel(replica_factory, config: EngineConfig,
                    payload_bytes: int | None) -> ParallelDispatcher:
    """``parallel``: ``n_workers`` persistent worker processes over rings."""
    return ParallelDispatcher(runtime_factory=replica_factory,
                              n_workers=config.n_workers,
                              scheduler=config.scheduler(),
                              payload_bytes=payload_bytes,
                              start_method=config.start_method,
                              ring_depth=config.ring_depth,
                              ring_chunk=config.ring_chunk)


register_topology("local", _build_in_process)
register_topology("sharded", _build_in_process)
register_topology("parallel", _build_parallel)


# ---------------------------------------------------------------------------
# Replica factories (picklable, for spawn-started workers)
# ---------------------------------------------------------------------------

class _KindFactory:
    """Build one replica from (runtime kind, source, config), by kind name.

    A class rather than a closure so an engine-built factory can cross a
    ``spawn`` process boundary whenever its source pickles: the kind is
    re-resolved from the registry inside the worker.
    """

    def __init__(self, kind_name: str, source, config: "EngineConfig"):
        self.kind_name = kind_name
        self.source = source
        self.config = config

    def __call__(self):
        return runtime_kinds.get(self.kind_name).build(self.source,
                                                       self.config)


class _ModelRuntimeFactory:
    """Build a replica through ``model.make_runtime``, config applied on top.

    A class rather than a closure so ``from_model(runtime="two_stage")``
    engines stay spawn-compatible whenever the model itself pickles.
    """

    def __init__(self, model, config: "EngineConfig"):
        self.model = model
        self.config = config

    def __call__(self):
        rt = self.model.make_runtime(capacity=self.config.capacity)
        rt.batch_size = self.config.batch_size
        rt.decision_cache = self.config.make_cache()
        return rt


class _ReplicaFactory:
    """Apply the configured lookup backend to each freshly built replica.

    The backend is resolved by name at call time (worker-side for process
    topologies), so this wrapper pickles whenever ``base`` does — custom
    backends registered via :func:`register_lookup_backend` must then also
    be registered in the worker's interpreter (automatic under ``fork``).

    Two-level caches built in the *same process* share one L2 store: the
    first replica's ``cache.l2`` is captured and handed to every later
    replica, so ``sharded`` shards see each other's approximate entries the
    way ``parallel`` workers do through the dispatcher's export/merge. The
    captured store never crosses a process boundary (each spawn/fork worker
    pickles the factory before any replica exists).
    """

    def __init__(self, base: Callable[[], Any], backend_name: str):
        self.base = base
        self.backend_name = backend_name
        self.shared_l2 = None

    def __call__(self):
        rt = self.base()
        lookup_backends.get(self.backend_name).apply(rt)
        cache = getattr(rt, "decision_cache", None)
        if getattr(cache, "two_level", False):
            if self.shared_l2 is None:
                self.shared_l2 = cache.l2
            else:
                cache.l2 = self.shared_l2
        return rt

    def __getstate__(self):
        # Drop the captured store when crossing a process boundary: workers
        # must start with their own empty L2 (shared via export/merge), not
        # a pickled copy that silently diverges.
        return {"base": self.base, "backend_name": self.backend_name,
                "shared_l2": None}


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
    ``flush_stats`` merges every replica's span-stream counters for this
    serve; ``cache_stats`` aggregates the replicas' *lifetime* decision-cache
    counters.
    """

    decisions: list
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
    def critical_seconds(self) -> float:
        """Slowest replica's replay time — the modeled concurrent wall clock
        (equals the measured wall for single-replica topologies)."""
        return max(self.shard_seconds) if self.shard_seconds \
            else self.wall_seconds

    @property
    def pps_parallel(self) -> float:
        """Packets/sec if replicas ran concurrently (pps at the critical
        path) — what ``sharded`` models and ``parallel`` measures."""
        return self.n_packets / max(self.critical_seconds, 1e-9)

    @property
    def accuracy(self) -> float | None:
        """Fraction of labelled decisions that were correct (None when the
        serve carried no ground-truth labels)."""
        labelled = [d for d in self.decisions if d.flow_label >= 0]
        if not labelled:
            return None
        return float(np.mean([d.predicted == d.flow_label for d in labelled]))

    def summary(self) -> dict:
        """Scalar view for logs / bench JSON (decisions elided)."""
        return {
            "topology": self.topology, "n_workers": self.n_workers,
            "runtime": self.runtime, "lookup_backend": self.lookup_backend,
            "n_packets": self.n_packets, "n_decisions": self.n_decisions,
            "wall_seconds": self.wall_seconds, "pps": self.pps,
            "pps_parallel": self.pps_parallel,
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

    def add(self, decisions: list, positions) -> None:
        """``positions[i]`` is the global position of sub-trace packet i."""
        for d in decisions:
            d.seq = positions[d.seq]
        self.flush_stats.merge(self._dispatcher.flush_stats)
        seconds = self._dispatcher.shard_seconds
        self.shard_seconds = (
            [a + b for a, b in zip(self.shard_seconds, seconds)]
            if self.shard_seconds else list(seconds))

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
    (:meth:`from_factory`). The engine resolves the configured runtime kind,
    lookup backend, admission policy, and topology through the module
    registries, owns the dispatcher's lifecycle (``start()``/``close()``/
    context manager — safe to call unconditionally), and serves through
    **one** polymorphic entry point:

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
        # validates runtime/lookup_backend/topology against the registries.
        self.config = _resolve_config(config, overrides)
        base = runtime_factory if runtime_factory is not None \
            else _KindFactory(self.config.runtime, source, self.config)
        self._replica_factory = _ReplicaFactory(
            base, self.config.lookup_backend)
        payload = self.config.payload_bytes
        if payload is None and self.config.runtime == "two_stage":
            payload = (_two_stage_spec(source).get("raw_bytes",
                                                   DEFAULT_PAYLOAD_BYTES)
                       if source is not None else DEFAULT_PAYLOAD_BYTES)
        self.payload_bytes = payload
        self._driver = topologies.get(self.config.topology)(
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
        config's batch/cache/backend settings applied on top.
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
            # A tiny probe replica validates eagerly what the model's own
            # make_runtime fixes (the config must agree, not silently lose)
            # and supplies the payload width the parallel topology ships.
            probe = model.make_runtime(capacity=1)
            window = getattr(probe, "window", config.window)
            if window != config.window:
                raise ConfigError(
                    "window", config.window,
                    allowed=str(window),
                    reason=f"{type(model).__name__}.make_runtime builds "
                           f"window-{window} replicas")
            if config.payload_bytes is None:
                config = replace(config, payload_bytes=getattr(
                    probe, "raw_bytes", DEFAULT_PAYLOAD_BYTES))
            return cls(runtime_factory=_ModelRuntimeFactory(model, config),
                       config=config)
        return cls(source=compiled, config=config)

    @classmethod
    def from_factory(cls, runtime_factory: Callable[[], Any],
                     config: EngineConfig | None = None,
                     **overrides) -> "PegasusEngine":
        """Serve replicas from an arbitrary zero-arg factory (escape hatch;
        the config's lookup backend is still applied to each replica)."""
        return cls(runtime_factory=runtime_factory, config=config, **overrides)

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
          optional);
        - a ``Trace.to_columns()``-style dict of per-packet arrays.

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
        keys = None
        if kind == "scenario":
            workload = workload.generate(seed=seed, flows_scale=flows_scale)
            kind = "scenario_trace"
        elif kind == "flows":
            # The interleaved trace of the labelled flows, keys in hand.
            workload, keys, labels = flows_to_trace(workload)
            kind = "trace"
        if mode == "open":
            if kind != "scenario_trace":
                workload = self._as_scenario_trace(workload, labels, kind)
            return self._serve_open(workload, max_gap=max_gap)
        if kind == "scenario_trace":
            return self._serve_scenario(workload, seed=seed)
        if kind == "columns":
            return self._serve_columns(workload, labels=labels)
        return self._serve_trace(workload, labels, keys)

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

    def _as_scenario_trace(self, workload, labels, kind) -> ScenarioTrace:
        """Wrap a non-scenario workload as a single-phase ScenarioTrace so
        the open-loop pump has timestamps and a phase span to pace/report."""
        trace = Trace.from_columns(workload) if kind == "columns" \
            else workload
        n = len(trace.packets)
        if labels is None:
            labels = np.full(n, -1, dtype=np.int64)
        ts0 = trace.packets[0].ts if n else 0.0
        ts1 = trace.packets[-1].ts if n else 0.0
        span = PhaseSpan("trace", float(ts0), float(ts1), 0, n)
        return ScenarioTrace(scenario="<trace>", seed=None, trace=trace,
                             labels=np.asarray(labels), phases=(span,))

    # -- serve internals -----------------------------------------------------

    def _serve_trace(self, trace: Trace, labels: np.ndarray | None = None,
                     keys: list | None = None) -> ServingReport:
        """Replay one time-ordered trace (per-packet ``labels`` optional)."""
        return self._serve(
            len(trace.packets),
            lambda: self._driver.serve_trace(trace, labels=labels, keys=keys))

    def _serve_columns(self, cols: dict[str, np.ndarray],
                       labels: np.ndarray | None = None) -> ServingReport:
        """Replay ``Trace.to_columns()``-style per-packet arrays: ``ts``, the
        5-tuple key columns, and whatever the runtime kind consumes
        (``length`` for windowed, ``payload`` for two-stage)."""
        missing = [c for c in ("ts", *KEY_COLUMN_NAMES) if c not in cols]
        if missing:
            raise ValueError(f"missing serve columns: {missing}")
        return self._serve(
            len(cols["ts"]),
            lambda: self._driver.serve_columns(cols, labels=labels))

    def _serve_scenario(self, workload: ScenarioTrace,
                        seed: int | None = None) -> ScenarioServingReport:
        """Replay a time-varying scenario, reported per ground-truth phase.

        Each phase is served as its own call against the *same* replicas —
        flow registers and caches carry across phase boundaries exactly as
        they would in one continuous replay, and batch boundaries never
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
        decisions: list = []
        n_packets, wall = 0, 0.0
        try:
            for span in workload.phases:
                self._driver.set_l2_admission(getattr(span, "l2_insert", True))
                report = self._serve_trace(
                    Trace(workload.trace.packets[span.start:span.stop]),
                    workload.labels[span.start:span.stop])
                totals.add(report.decisions, range(span.start, span.stop))
                report.cache_stats = totals.phase_cache_stats()
                phases.append((span, report))
                decisions.extend(report.decisions)
                n_packets += report.n_packets
                wall += report.wall_seconds
        finally:
            self._driver.set_l2_admission(True)
        return ScenarioServingReport(
            scenario=getattr(workload, "scenario", "<trace>"),
            seed=getattr(workload, "seed", seed),
            overall=self._report(decisions, n_packets, wall, totals),
            phases=phases)

    def _serve_open(self, workload: ScenarioTrace,
                    max_gap: float | None = None) -> OpenLoopReport:
        """Pump a materialized workload open-loop through the admission
        policy and the configured dispatcher.

        The pump feeds admitted packets in arrival order, the consumer
        drains chunks of at most ``config.batch_size`` through the normal
        serve path — and because batch boundaries never change decisions,
        the concatenated decision stream over the admitted subsequence is
        bit-identical to a closed-loop replay of exactly those packets
        (``verify_open_loop`` in the differential harness asserts this
        against the scalar reference).
        """
        self.start()
        config = self.config
        policy = admission_policies.get(config.admission).build(config)
        labels = np.asarray(workload.labels)
        packets = workload.trace.packets
        keys = workload.trace.canonical_keys()  # once per serve, not per chunk
        totals = _SubServes(self._driver)

        def serve_chunk(indices: list[int]) -> list:
            idx = np.asarray(indices, dtype=np.int64)
            rows = idx.tolist()
            decisions = self._driver.serve_trace(
                Trace([packets[i] for i in rows]), labels=labels[idx],
                keys=[keys[i] for i in rows])
            totals.add(decisions, rows)
            return decisions

        offsets = None
        if config.time_scale > 0:
            offsets = workload.arrival_offsets(config.time_scale,
                                               max_gap=max_gap)
        pump = OpenLoopPump(len(packets), offsets, serve_chunk, policy,
                            drain_max=max(1, config.batch_size))
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

    def _serve(self, n_packets: int, run: Callable[[], list]) -> ServingReport:
        """One timed dispatcher serve, reported with the dispatcher's stats."""
        self.start()    # replica build / worker fork lands outside the clock
        started = time.perf_counter()
        decisions = run()
        wall = time.perf_counter() - started
        return self._report(decisions, n_packets, wall, self._driver)

    def _report(self, decisions: list, n_packets: int, wall: float,
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
    "CACHE_MODES",
    "AdmissionPolicySpec",
    "EngineConfig",
    "LookupBackend",
    "OpenLoopReport",
    "PegasusEngine",
    "Registry",
    "RuntimeKind",
    "ScenarioServingReport",
    "ServingReport",
    "admission_policies",
    "lookup_backends",
    "register_admission_policy",
    "register_lookup_backend",
    "register_runtime_kind",
    "register_topology",
    "runtime_kinds",
    "topologies",
]
