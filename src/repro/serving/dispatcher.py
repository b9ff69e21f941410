"""The dispatcher: serve one trace across N flow-pinned runtime replicas.

One software pipeline replica is single-threaded NumPy; to scale a heavy
trace the dispatcher hashes each flow's canonical 5-tuple onto one of
``n_shards`` runtime replicas (so all packets of a flow — and therefore all
its register state — live on exactly one replica), replays each shard's
packet subsequence through the batched runtime, and merges the per-shard
decision columns back into global trace order via their ``seq`` column.

Every serve is the same steps, written once in :class:`ShardedDispatcher`:
wire columns (validated) -> shard split -> ``_execute`` -> stats.
``_execute`` is the seam a transport plugs into: here it replays the shards
serially on in-process replicas; :class:`repro.serving.ParallelDispatcher`
overrides it (and the lifecycle) to hand the same shards to worker
processes through shared memory, one hand-off per worker per serve.

Because flows never span shards, sharded decisions are bit-identical to an
unsharded replay whenever per-replica register capacity does not bind
(asserted by the serving tests); under capacity pressure each replica runs
its own FIFO eviction, so eviction points — like on a real multi-pipe
switch — may differ from a single giant table.

Every replica, in-process or in a worker, steps its registers in fixed
spans of :data:`~repro.dataplane.runtime.REGISTER_STEP_ROWS` rows: the
switch has no batch, so there is no chunk to size. Where the cuts fall
never changes a decision (asserted by the serving tests), so
``flush_stats`` is a pure function of the shard sizes and the step
(:func:`flush_counts`).

Usage::

    from repro.serving import ShardedDispatcher

    dispatcher = ShardedDispatcher(
        runtime_factory=lambda: WindowedClassifierRuntime(
            compiled, feature_mode="stats"),
        n_shards=4)
    decisions = dispatcher.serve_flows(test_flows)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dataplane import runtime as dataplane_runtime
from repro.dataplane.decisions import DecisionBatch, alloc_decision_columns
from repro.dataplane.runtime import flows_to_trace, replay_labels
from repro.dataplane.schema import DECISION_COLUMNS, WIRE_COLUMNS, wire_dtype
from repro.errors import ConfigError
from repro.net.packet import FlowKey
from repro.net.traces import Trace
from repro.serving.cache import CacheStats
from repro.serving.rings import scatter_decision_chunk

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

_KEY_FIELD_WIDTHS = (("src_ip", 4), ("dst_ip", 4),
                     ("src_port", 2), ("dst_port", 2), ("proto", 1))


def shard_hash(key: FlowKey) -> int:
    """Deterministic FNV-1a over the 5-tuple bytes (stable across runs)."""
    h = _FNV_OFFSET
    for value, width in ((key.src_ip, 4), (key.dst_ip, 4),
                         (key.src_port, 2), (key.dst_port, 2), (key.proto, 1)):
        for shift in range(0, 8 * width, 8):
            h ^= (value >> shift) & 0xFF
            h = (h * _FNV_PRIME) & _FNV_MASK
    return h


def shard_hash_columns(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized :func:`shard_hash` over whole key columns (uint64).

    Bit-identical to the scalar form for every key — the per-byte FNV-1a
    rounds run on uint64 arrays with the same wraparound arithmetic — so a
    columnar dispatcher pins each flow to exactly the shard the scalar
    dispatcher would. The int64 key columns of the wire schema are
    *reinterpreted* as uint64 views (key fields are nonnegative and
    < 2**32, so the bits are identical) — no per-field copy on the
    per-serve hot path.
    """
    n = len(cols["src_ip"])
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for name, width in _KEY_FIELD_WIDTHS:
        raw = np.asarray(cols[name])
        value = (raw.view(np.uint64) if raw.dtype == np.int64
                 else raw.astype(np.uint64, copy=False))
        for shift in range(0, 8 * width, 8):
            h = h ^ ((value >> np.uint64(shift)) & np.uint64(0xFF))
            h = h * prime
    return h


@dataclass
class FlushStats:
    """How many register steps one serve ran, and why."""

    full: int = 0        # spanned the step's full rows
    tail: int = 0        # the end of a shard ran a shorter step

    @property
    def total(self) -> int:
        return self.full + self.tail

    def merge(self, other: "FlushStats") -> None:
        """Accumulate another serve's (or shard's) counts."""
        self.full += other.full
        self.tail += other.tail


def flush_counts(rows: int, step: int) -> FlushStats:
    """The register steps of fixed ``step``-row cuts over ``rows`` packets."""
    full, rest = divmod(rows, step)
    return FlushStats(full=full, tail=int(rest > 0))


@dataclass
class ShardedDispatcher:
    """Fan a trace out over ``n_shards`` independent runtime replicas.

    ``runtime_factory`` builds one fresh replica (a
    :class:`~repro.dataplane.runtime.WindowedClassifierRuntime` or
    :class:`~repro.dataplane.runtime.TwoStageRuntime`); each replica owns
    its own flow-state registers, and the factory configures everything
    about it (lookup backend, decision cache). Every replica replays its
    shard in ``REGISTER_STEP_ROWS`` spans, whatever its own default.

    Replicas are built by :meth:`start` (every serve calls it), keep their
    state across serves and are discarded by :meth:`close`. They are
    replayed serially here (single-threaded simulator), but
    ``shard_seconds`` records each replica's replay time from the last
    serve call — the modeled parallel wall clock is ``max(shard_seconds)``;
    :class:`repro.serving.ParallelDispatcher` runs the same split on real
    concurrent workers and *measures* that wall clock instead.
    ``flush_stats`` counts the last serve's register steps over all shards;
    ``cache_stats`` are the replicas' aggregate *lifetime* decision-cache
    counters at its end (a new object whenever they moved: an earlier
    reading never changes).
    """

    runtime_factory: Callable[[], Any]
    n_shards: int = 1
    runtimes: list[Any] = field(init=False, default_factory=list)
    l2_admit: bool = field(init=False, default=True)
    shard_seconds: list[float] = field(init=False, default_factory=list)
    wall_seconds: float = field(init=False, default=0.0)
    flush_stats: FlushStats = field(init=False, default_factory=FlushStats)
    cache_stats: CacheStats = field(init=False, default_factory=CacheStats)

    # What a transport subclass changes: whether replicas live in this
    # process (then a single one replays the caller's own trace, unsplit),
    # and the payload bytes per packet its wire columns carry (in-process
    # replicas read payloads off the packets themselves).
    in_process = True
    payload_bytes = None

    def __post_init__(self):
        if self.n_shards < 1:
            raise ConfigError("n_shards", self.n_shards, allowed=">= 1")

    def start(self) -> None:
        """Build the replicas; no-op when already running."""
        if not self.runtimes:
            self.cache_stats = CacheStats()     # cold replicas
            self.runtimes = [self.runtime_factory()
                             for _ in range(self.n_shards)]

    def close(self) -> None:
        """Discard the replicas and their state; always safe."""
        self.runtimes = []

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def shard_of(self, key: FlowKey) -> int:
        """The replica index serving this flow."""
        return shard_hash(key.canonical()) % self.n_shards

    def set_l2_admission(self, admit: bool) -> None:
        """Open/close the two-level caches' L2 gate for the serves that
        follow. In-process replicas take the flag here; a transport ships
        ``l2_admit`` with each serve."""
        self.start()
        self.l2_admit = bool(admit)
        for runtime in self.runtimes:
            cache = getattr(runtime, "decision_cache", None)
            if getattr(cache, "two_level", False):
                cache.l2_admit = self.l2_admit

    def serve_flows(self, flows: list) -> DecisionBatch:
        """Replay the interleaved trace of many labelled flows, sharded."""
        trace, labels = flows_to_trace(flows)
        return self.serve_trace(trace, labels=labels)

    def serve_trace(self, trace: Trace, labels: np.ndarray | None = None
                    ) -> DecisionBatch:
        """Shard, replay, and merge one trace; decisions in global order.

        The one serve path: split -> execute -> merge, stats recorded.
        ``labels`` of the wrong length raise a
        :class:`~repro.errors.ConfigError` before any replica is touched.
        """
        labels = replay_labels(labels, len(trace))
        self.start()    # replica build / worker fork lands outside the clock
        started = time.perf_counter()
        step = dataplane_runtime.REGISTER_STEP_ROWS     # read per serve
        if self.n_shards == 1 and self.in_process:
            # Nothing to split: the one replica replays the caller's trace.
            runtime = self.runtimes[0]
            decisions = runtime.process_trace(trace, labels=labels,
                                              batch_size=step)
            self.wall_seconds = time.perf_counter() - started
            self.shard_seconds = [self.wall_seconds]
            self.flush_stats = flush_counts(len(trace), step)
            if getattr(runtime, "decision_cache", None) is not None:
                self.cache_stats = self._replica_cache_stats()
            return decisions
        sources, members = self._split(trace, labels)
        self.shard_seconds = [0.0] * self.n_shards
        self.flush_stats, self.cache_stats = FlushStats(), CacheStats()
        decisions = self._execute(trace, sources, members, step)
        for member in members:
            self.flush_stats.merge(flush_counts(len(member), step))
        self.wall_seconds = time.perf_counter() - started
        return decisions

    def _split(self, trace: Trace, labels) -> tuple[dict, list]:
        """The trace as wire columns, and each shard's member positions.

        ``sources`` holds the whole trace's columns (keys canonical),
        validated here once — the produce side of every gather downstream,
        which would otherwise cast or corrupt a drifted column in place. A
        shard's members are the global positions of its packets, in trace
        order.
        """
        cols = trace.packet_columns()
        labels = np.asarray(labels, dtype=wire_dtype("labels"))
        key_cols = trace.canonical_key_columns()
        sources = {"ts": cols["ts"], "length": cols["length"], **key_cols,
                   "labels": labels}
        if self.payload_bytes:
            sources["payload"] = trace.payload_matrix(self.payload_bytes)
        WIRE_COLUMNS.validate_columns(
            sources, context=f"{type(self).__name__} shard split")
        shard_ids = (shard_hash_columns(key_cols)
                     % np.uint64(self.n_shards)).astype(np.int64)
        return sources, [np.nonzero(shard_ids == s)[0]
                         for s in range(self.n_shards)]

    def _execute(self, trace: Trace, sources: dict, members: list,
                 step: int) -> DecisionBatch:
        """Replay the shards on their replicas in ``step``-row register
        steps, here one after another; records ``shard_seconds[s]`` and
        ``cache_stats`` and returns the decisions in global trace order.
        The seam a transport overrides.

        Each shard's ``seq`` maps through its members to global positions,
        and the columns scatter to those positions — the same merge the
        parallel driver runs on each worker's egress range. The scatter casts, so each
        shard's decisions are validated against the decision schema first:
        a replica whose decision dtype drifted raises a ``SchemaError``
        instead of being silently cast."""
        labels = sources["labels"]
        merged = alloc_decision_columns(len(trace))
        valid = np.zeros(len(trace), dtype=np.bool_)
        for s, member in enumerate(members):
            if len(member) == 0:
                continue
            started = time.perf_counter()
            shard = self.runtimes[s].process_trace(
                trace.take(member), labels=labels[member], batch_size=step)
            self.shard_seconds[s] = time.perf_counter() - started
            cols = shard.columns()
            DECISION_COLUMNS.validate_columns(
                cols, context=f"shard {s} decisions")
            scatter_decision_chunk(merged, valid, member[shard.seq], cols,
                                   len(shard))
        self.cache_stats = self._replica_cache_stats()
        return DecisionBatch(**merged).take(np.flatnonzero(valid))

    def _replica_cache_stats(self) -> CacheStats:
        """Aggregate decision-cache counters over all replicas (lifetime)."""
        total = CacheStats()
        for runtime in self.runtimes:
            cache = getattr(runtime, "decision_cache", None)
            if cache is not None:
                total.merge(cache.stats)
        return total
