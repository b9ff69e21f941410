"""Batched serving layer: shard, cache, and replay traces at scale.

The scalar oracle (:mod:`repro.eval.oracle`, run by
:func:`repro.eval.differential.scalar_replay`) decides one packet at a
time; this package is the throughput path that drives the dataplane
runtimes of :mod:`repro.dataplane.runtime` in **NumPy batches** across
**multiple pipeline replicas** — serially simulated or genuinely concurrent.

The front door is :class:`PegasusEngine` (:mod:`repro.serving.engine`): one
frozen :class:`EngineConfig` names the runtime kind, lookup backend,
batch size, cache, admission policy, and topology (runtime kinds,
topologies and admission policies are closed tables in the engine
module; only lookup backends register); the engine builds and
owns the whole stack and the polymorphic ``serve(workload, mode=...)``
entry point returns one merged :class:`ServingReport` (closed loop) or
:class:`OpenLoopReport` (open loop). The pieces it assembles (all still
importable for reference stacks and tests):

- :class:`ShardedDispatcher` — *the* dispatcher: hashes each flow's
  canonical 5-tuple onto one of N independent runtime replicas (flow state
  never spans shards), replays every shard in fixed ``REGISTER_STEP_ROWS``
  register steps on every topology, and merges decisions back into global
  trace order; its :class:`FlushStats` count those steps. Its replicas
  live in-process and replay serially, so parallel wall clock is modeled
  as ``max(shard_seconds)``; :class:`ParallelDispatcher` is the same
  dispatcher over persistent ``multiprocessing`` workers, each handed its
  whole shard per serve through two shared-memory segments
  (:mod:`repro.serving.rings` — only one descriptor and one reply per
  worker cross the pipes), where ``wall_seconds`` is *measured*. The
  engine applies the configured lookup backend (``"tcam-pruned"`` serves
  windowed replicas through the
  hardware-faithful prioritized-TCAM path of :mod:`repro.dataplane.tcam`)
  to every replica it builds — bit-identical decisions either way.
- :class:`FlowDecisionCache` — a per-replica LRU of
  ``(canonical 5-tuple, window index) -> decision`` that short-circuits
  model invocation for already-classified elephant flows whose windows
  repeat, without changing a single decision (windowed replicas only; the
  two-stage runtime has no cache).
- :class:`TwoLevelDecisionCache` — the exact L1 above plus a per-replica
  quantized L2 (:class:`QuantizedDecisionStore`) that serves *approximate*
  hits for near-repeating windows, but only when a decision-cell
  certificate proves the cached decision cannot differ (verify-on-hit;
  ``EngineConfig(decision_cache="l1+l2")``).
- :class:`OpenLoopPump` + the admission policies (:class:`NoAdmission`,
  :class:`TailDropAdmission`, :class:`AimdAdmission`) — the open-loop
  front end behind ``serve(mode="open")``: packets arrive on the trace's
  own (scaled) timestamps, flow through the configured admission policy
  into a bounded ingress queue, and the report records decision-latency
  percentiles, the queue-depth timeline, and exactly which packets were
  shed (:class:`OpenLoopReport`).

End-to-end example (train → compile → serve)::

    from repro.models import build_model
    from repro.net import make_dataset
    from repro.net.features import dataset_views
    from repro.serving import EngineConfig, PegasusEngine

    ds = make_dataset("peerrush", flows_per_class=60, seed=0)
    train, _val, test = ds.split(rng=0)
    model = build_model("MLP-B", ds.n_classes, seed=0)
    views = dataset_views(train)
    model.train(views)
    model.compile_dataplane(views)

    config = EngineConfig(feature_mode="stats", topology="sharded",
                          n_workers=4)
    with PegasusEngine.from_model(model, config) as engine:
        report = engine.serve(test)            # ServingReport
    decisions = report.decisions               # DecisionBatch, trace order
    decisions.predicted, decisions.seq         # one array per field
    list(decisions)                            # PacketDecision objects

Sharded + batched + parallel + cached replay is bit-identical to per-packet
replay (same decisions, same order) whenever register capacity does not
bind — the regression tests in ``tests/test_dataplane_batched.py``,
``tests/test_serving.py``, and ``tests/test_serving_parallel.py`` assert it.
"""

from repro.serving.cache import (CacheStats, FlowDecisionCache,
                                 QuantizedDecisionStore,
                                 TwoLevelDecisionCache)
from repro.serving.dispatcher import (FlushStats, ShardedDispatcher,
                                      shard_hash, shard_hash_columns)
from repro.serving.engine import (CACHE_MODES, EngineConfig, PegasusEngine,
                                  ScenarioServingReport, ServingReport,
                                  register_lookup_backend)
from repro.serving.openloop import (AdmissionPolicy, AimdAdmission,
                                    LatencySummary, NoAdmission,
                                    OpenLoopPhaseReport, OpenLoopPump,
                                    OpenLoopReport, TailDropAdmission)
from repro.serving.parallel import ParallelDispatcher

__all__ = [
    "AdmissionPolicy",
    "AimdAdmission",
    "CACHE_MODES",
    "CacheStats",
    "EngineConfig",
    "FlowDecisionCache",
    "FlushStats",
    "LatencySummary",
    "NoAdmission",
    "OpenLoopPhaseReport",
    "OpenLoopPump",
    "OpenLoopReport",
    "ParallelDispatcher",
    "PegasusEngine",
    "QuantizedDecisionStore",
    "ScenarioServingReport",
    "ServingReport",
    "ShardedDispatcher",
    "TailDropAdmission",
    "TwoLevelDecisionCache",
    "register_lookup_backend",
    "shard_hash",
    "shard_hash_columns",
]
