"""The dispatcher: serve one trace across N flow-pinned runtime replicas.

One software pipeline replica is single-threaded NumPy; to scale a heavy
trace the dispatcher hashes each flow's canonical 5-tuple onto one of
``n_shards`` runtime replicas (so all packets of a flow — and therefore all
its register state — live on exactly one replica), replays each shard's
packet subsequence through the batched runtime, and merges the per-shard
decision streams back into global trace order via the decisions' ``seq``
field.

Every serve is the same steps, written once in :class:`ShardedDispatcher`:
wire columns (validated) -> shard split -> ``_execute`` -> stats.
``_execute`` is the seam a transport plugs into: here it replays the shards
serially on in-process replicas; :class:`repro.serving.ParallelDispatcher`
overrides it (and the lifecycle) to pump the same shards through
shared-memory rings to worker processes.

Because flows never span shards, sharded decisions are bit-identical to an
unsharded replay whenever per-replica register capacity does not bind
(asserted by the serving tests); under capacity pressure each replica runs
its own FIFO eviction, so eviction points — like on a real multi-pipe
switch — may differ from a single giant table.

Usage::

    from repro.serving import BatchScheduler, ShardedDispatcher

    dispatcher = ShardedDispatcher(
        runtime_factory=lambda: WindowedClassifierRuntime(
            compiled, feature_mode="stats", batch_size=256),
        n_shards=4,
        scheduler=BatchScheduler(batch_size=256, timeout=0.050))
    decisions = dispatcher.serve_flows(test_flows)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.mapping import _check_backend
from repro.dataplane.runtime import flows_to_trace
from repro.dataplane.schema import WIRE_COLUMNS, validation_enabled, wire_dtype
from repro.errors import ConfigError
from repro.net.packet import FlowKey
from repro.net.traces import (KEY_COLUMN_NAMES, Trace,
                              canonicalize_key_columns, keys_from_columns)
from repro.serving.cache import CacheStats
from repro.serving.scheduler import BatchScheduler, FlushStats

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


# reprolint: zone=zero-copy
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


def build_replica(runtime_factory: Callable[[], Any],
                  lookup_backend: str | None = None):
    """One fresh replica with ``lookup_backend`` applied, wherever it lives
    (this process, or a worker behind its warm-up ping)."""
    runtime = runtime_factory()
    if lookup_backend is not None:
        runtime.set_lookup_backend(lookup_backend)
    return runtime


@dataclass
class ShardedDispatcher:
    """Fan a trace out over ``n_shards`` independent runtime replicas.

    ``runtime_factory`` builds one fresh replica (a
    :class:`~repro.dataplane.runtime.WindowedClassifierRuntime` or
    :class:`~repro.dataplane.runtime.TwoStageRuntime`); each replica owns
    its own flow-state registers. ``scheduler`` (optional) supplies
    flush-on-full-or-timeout batch spans per shard; without it each replica
    uses its own fixed ``batch_size``. ``lookup_backend`` (``"index"`` |
    ``"tcam"``), when set, is propagated onto every factory-built replica
    via ``set_lookup_backend`` — the one dispatcher knob that switches the
    whole fleet between fancy-index and emulated-TCAM model lookups
    (bit-identical decisions either way).

    Replicas are built by :meth:`start` (every serve calls it), keep their
    state across serves and are discarded by :meth:`close`. They are
    replayed serially here (single-threaded simulator), but
    ``shard_seconds`` records each replica's replay time from the last
    serve call — the modeled parallel wall clock is ``max(shard_seconds)``;
    :class:`repro.serving.ParallelDispatcher` runs the same split on real
    concurrent workers and *measures* that wall clock instead.
    ``flush_stats`` aggregates per-shard span-stream flush counts over the
    last serve (the scheduler itself is immutable configuration, so sharing
    one across shards — or dispatchers — is safe); ``cache_stats`` are the
    replicas' aggregate *lifetime* decision-cache counters at its end (a
    new object whenever they moved: an earlier reading never changes).
    """

    runtime_factory: Callable[[], Any]
    n_shards: int = 1
    scheduler: BatchScheduler | None = None
    lookup_backend: str | None = None
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
        if self.lookup_backend is not None:
            # Fail fast on a typo'd backend, before any replica is built
            # (replica-specific rejections still surface from start()).
            _check_backend(self.lookup_backend)

    def start(self) -> None:
        """Build the replicas; no-op when already running."""
        if not self.runtimes:
            self.cache_stats = CacheStats()     # cold replicas
            self.runtimes = [
                build_replica(self.runtime_factory, self.lookup_backend)
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

    def serve_flows(self, flows: list) -> list:
        """Replay the interleaved trace of many labelled flows, sharded."""
        trace, keys, labels = flows_to_trace(flows)
        return self.serve_trace(trace, labels=labels, keys=keys)

    def serve_trace(self, trace: Trace, labels: np.ndarray | None = None,
                    keys: list | None = None) -> list:
        """Shard, replay, and merge one trace; decisions in global order."""
        return self._serve(trace, labels, keys)

    def serve_columns(self, cols: dict[str, np.ndarray],
                      labels: np.ndarray | None = None) -> list:
        """Serve ``Trace.to_columns()``-style arrays (``ts``, the 5-tuple
        key columns, and whatever per-packet columns the replicas consume).

        One in-process replica replays the columns directly; a split
        rebuilds the trace once and shards that.
        """
        if self.n_shards > 1 or not self.in_process:
            return self.serve_trace(Trace.from_columns(cols), labels=labels)
        keys = keys_from_columns(canonicalize_key_columns(
            {name: cols[name] for name in KEY_COLUMN_NAMES}))
        return self._serve(cols, labels, keys)

    def _serve(self, packets, labels, keys) -> list:
        """The one serve path: split -> execute -> merge, stats recorded."""
        self.start()    # replica build / worker fork lands outside the clock
        started = time.perf_counter()
        if self.n_shards == 1 and self.in_process:
            # Nothing to split: the one replica replays the caller's own
            # trace (or columns), cutting its own span stream from the
            # timestamp column it extracts anyway (no second per-packet
            # pass) and recording it as ``last_flush_stats``.
            runtime = self.runtimes[0]
            if isinstance(packets, dict):
                decisions = runtime.process_columns(
                    packets, keys, labels=labels, scheduler=self.scheduler)
            else:
                decisions = runtime.process_trace(
                    packets, labels=labels, scheduler=self.scheduler,
                    keys=keys)
            self.wall_seconds = time.perf_counter() - started
            self.shard_seconds = [self.wall_seconds]
            self.flush_stats = getattr(runtime, "last_flush_stats", None) \
                or FlushStats()
            if getattr(runtime, "decision_cache", None) is not None:
                self.cache_stats = self._replica_cache_stats()
            return decisions
        sources, shards = self._split(packets, labels)
        self.shard_seconds = [0.0] * self.n_shards
        self.flush_stats, self.cache_stats = FlushStats(), CacheStats()
        decisions = self._execute(packets, keys, sources, shards)
        for _member, stream in shards:
            if stream is not None:
                self.flush_stats.merge(stream.stats)
        self.wall_seconds = time.perf_counter() - started
        return decisions

    def _split(self, trace: Trace, labels) -> tuple[dict, list]:
        """The trace as wire columns, and one ``(member, stream)`` per shard.

        ``sources`` holds the whole trace's columns (labels defaulted to
        -1, keys canonical), validated here once — the produce side of
        every gather downstream, which would otherwise cast or corrupt a
        drifted column in place. ``member`` are the global positions of a
        shard's packets, ``stream`` the scheduler's batch spans over their
        timestamps (None without a scheduler).
        """
        cols = trace.packet_columns()
        if labels is None:
            labels = np.full(len(cols["ts"]), -1, dtype=wire_dtype("labels"))
        else:
            labels = np.asarray(labels, dtype=wire_dtype("labels"))
        key_cols = trace.canonical_key_columns()
        sources = {"ts": cols["ts"], "length": cols["length"], **key_cols,
                   "labels": labels}
        if self.payload_bytes:
            sources["payload"] = trace.payload_matrix(self.payload_bytes)
        if validation_enabled():
            WIRE_COLUMNS.validate_columns(
                sources, context=f"{type(self).__name__} shard split")
        shard_ids = (shard_hash_columns(key_cols)
                     % np.uint64(self.n_shards)).astype(np.int64)
        members = [np.nonzero(shard_ids == s)[0]
                   for s in range(self.n_shards)]
        return sources, [
            (member, self.scheduler.iter_spans(cols["ts"][member])
             if self.scheduler is not None else None)
            for member in members]

    def _execute(self, trace: Trace, keys, sources: dict,
                 shards: list) -> list:
        """Replay the shards on their replicas, here one after another;
        records ``shard_seconds[s]`` and ``cache_stats`` and returns the
        decisions in global trace order. The seam a transport overrides."""
        if keys is None:
            keys = keys_from_columns(sources)
        packets, labels = trace.packets, sources["labels"]
        decisions: list = []
        for s, (member, stream) in enumerate(shards):
            if len(member) == 0:
                continue
            rows = member.tolist()
            sub_trace = Trace([packets[i] for i in rows])
            sub_keys = [keys[i] for i in rows]
            started = time.perf_counter()
            shard_decisions = self.runtimes[s].process_trace(
                sub_trace, labels=labels[member], spans=stream, keys=sub_keys)
            self.shard_seconds[s] = time.perf_counter() - started
            for d in shard_decisions:
                d.seq = rows[d.seq]          # shard-local -> global position
            decisions.extend(shard_decisions)
        decisions.sort(key=lambda d: d.seq)
        self.cache_stats = self._replica_cache_stats()
        return decisions

    def _replica_cache_stats(self) -> CacheStats:
        """Aggregate decision-cache counters over all replicas (lifetime)."""
        total = CacheStats()
        for runtime in self.runtimes:
            cache = getattr(runtime, "decision_cache", None)
            if cache is not None:
                total.merge(cache.stats)
        return total
