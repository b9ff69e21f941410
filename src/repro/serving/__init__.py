"""Batched serving layer: schedule, shard, cache, and replay traces at scale.

The dataplane runtimes in :mod:`repro.dataplane.runtime` decide one packet
at a time when driven through ``process_packet``; this package is the
throughput path that drives them in **NumPy batches** across **multiple
pipeline replicas** — serially simulated or genuinely concurrent.

The front door is :class:`PegasusEngine` (:mod:`repro.serving.engine`): one
frozen :class:`EngineConfig` names the runtime kind, lookup backend,
scheduler, cache, admission policy, and topology; the engine builds and
owns the whole stack and the polymorphic ``serve(workload, mode=...)``
entry point returns one merged :class:`ServingReport` (closed loop) or
:class:`OpenLoopReport` (open loop). The pieces it assembles (all still
importable for reference stacks and tests):

- :class:`BatchScheduler` — immutable batch-cutting config: flush when full
  (``batch_size``) or when the oldest buffered packet has waited ``timeout``
  seconds of trace time, mirroring the full-or-timeout batching of inference
  servers and NIC drivers; with ``latency_target`` set, lazily consumed
  :class:`SpanStream` s adapt the batch size AIMD-style to the measured
  per-batch service time.
- :class:`ShardedDispatcher` — *the* dispatcher: hashes each flow's
  canonical 5-tuple onto one of N independent runtime replicas (flow state
  never spans shards), replays every shard, and merges decisions back into
  global trace order. Its replicas live in-process and replay serially, so
  parallel wall clock is modeled as ``max(shard_seconds)``;
  :class:`ParallelDispatcher` is the same dispatcher over persistent
  ``multiprocessing`` workers fed through preallocated shared-memory ring
  buffers (:mod:`repro.serving.rings` — only fixed-size chunk descriptors
  cross the worker pipes), where ``wall_seconds`` is *measured*. Either
  takes ``lookup_backend="tcam"`` to serve the hardware-faithful
  prioritized-TCAM lookup path (:mod:`repro.dataplane.tcam`) on every
  replica — bit-identical decisions either way.
- :class:`FlowDecisionCache` — a per-replica LRU of
  ``(canonical 5-tuple, window index) -> decision`` that short-circuits
  model invocation for already-classified elephant flows whose windows
  repeat, without changing a single decision.
- :class:`TwoLevelDecisionCache` — the exact L1 above plus a shared
  quantized L2 (:class:`QuantizedDecisionStore`) that serves *approximate*
  hits for near-repeating windows, but only when a decision-cell
  certificate proves the cached decision cannot differ (verify-on-hit;
  ``EngineConfig(decision_cache="l1+l2")``).
- :class:`OpenLoopPump` + the admission policies (:class:`NoAdmission`,
  :class:`TailDropAdmission`, :class:`AimdAdmission`) — the open-loop
  front end behind ``serve(mode="open")``: packets arrive on the trace's
  own (scaled) timestamps, flow through a pluggable admission policy into
  a bounded ingress queue, and the report records decision-latency
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

    config = EngineConfig(feature_mode="stats", batch_size=256,
                          timeout=0.050, topology="sharded", n_workers=4)
    with PegasusEngine.from_model(model, config) as engine:
        report = engine.serve(test)            # ServingReport
    decisions = report.decisions               # global trace order

Sharded + batched + parallel + cached replay is bit-identical to per-packet
replay (same decisions, same order) whenever register capacity does not
bind — the regression tests in ``tests/test_dataplane_batched.py``,
``tests/test_serving.py``, and ``tests/test_serving_parallel.py`` assert it.
"""

from repro.serving.scheduler import BatchScheduler, FlushStats, SpanStream
from repro.serving.cache import (CacheStats, FlowDecisionCache,
                                 QuantizedDecisionStore,
                                 TwoLevelDecisionCache)
from repro.serving.dispatcher import (ShardedDispatcher, shard_hash,
                                      shard_hash_columns)
from repro.serving.engine import (CACHE_MODES, AdmissionPolicySpec,
                                  EngineConfig, PegasusEngine,
                                  ScenarioServingReport, ServingReport,
                                  admission_policies,
                                  register_admission_policy,
                                  register_lookup_backend,
                                  register_runtime_kind, register_topology)
from repro.serving.openloop import (AdmissionPolicy, AimdAdmission,
                                    LatencySummary, NoAdmission,
                                    OpenLoopPhaseReport, OpenLoopPump,
                                    OpenLoopReport, TailDropAdmission)
from repro.serving.parallel import ParallelDispatcher

__all__ = [
    "AdmissionPolicy",
    "AdmissionPolicySpec",
    "AimdAdmission",
    "BatchScheduler",
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
    "SpanStream",
    "TailDropAdmission",
    "TwoLevelDecisionCache",
    "admission_policies",
    "register_admission_policy",
    "register_lookup_backend",
    "register_runtime_kind",
    "register_topology",
    "shard_hash",
    "shard_hash_columns",
]
