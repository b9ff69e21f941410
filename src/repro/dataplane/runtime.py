"""End-to-end packet runtimes: per-flow state + compiled-model inference.

Two runtimes cover the paper's deployment shapes:

- :class:`WindowedClassifierRuntime` — RNN-B / CNN-B / CNN-M / MLP-B style:
  the switch stores each flow's recent (length, IPD) buckets in registers;
  once a full window is present every packet is classified from the window's
  feature view.
- :class:`TwoStageRuntime` — CNN-L style: a per-packet extractor maps the
  packet's raw bytes to a small *fuzzy index*; only indexes (4–8 bits each)
  are stored per flow, and a second stage classifies from the window of
  indexes (+ optional IPD buckets). This is the paper's "Flow Scalability"
  design that gets CNN-L to 28–72 stateful bits per flow.

Flow-state register layout
--------------------------

Both runtimes keep per-flow state in a :class:`VectorFlowState`: one
preallocated 2-D NumPy array per register field, rows indexed by a flow-slot
table (canonical 5-tuple -> row) with FIFO eviction at ``capacity``.

:class:`WindowedClassifierRuntime` (window ``W``, default 8)::

    prev_ts   16 bits        last packet's timestamp in 64 us units
    count      8 bits        packets seen (saturating at 255)
    len_hist   8 bits x W-1  length buckets of the last W-1 packets
    ipd_hist   8 bits x W-1  IPD buckets of the last W-1 packets
                             -> 16 + 8 + 7*8 + 7*8 = 136 bits/flow at W=8

:class:`TwoStageRuntime` (window ``W``, index width ``idx_bits``)::

    prev_ts   16 bits        only when ``needs_ipd``
    count      8 bits
    idx_hist  idx_bits x W-1 fuzzy indexes of the last W-1 packets
                             -> 16 + 4*7 = 44 bits/flow for the paper's
                                CNN-L 44-bit variant (count is control-plane
                                bookkeeping the paper folds into prev_ts)

Eviction: when a new flow arrives at capacity the *oldest inserted* flow is
dropped, its register rows are zeroed, and the slot is reused — so a
re-arriving evicted flow restarts its window from scratch, exactly the
state-loss the Figure-7 capacity ablation measures.

Batched replay
--------------

``process_flows`` / ``process_trace`` replay a trace in NumPy batches
(``batch_size`` packets at a time): per-flow state is gathered/scattered
with fancy indexing and the compiled model (:meth:`CompiledModel.forward_int`
or :meth:`Pipeline.process`) is invoked **once per batch**. Intra-batch
packets of the same flow are handled exactly (each packet's window may span
stored history and earlier in-batch packets), so batched decisions are
bit-identical to the per-packet reference path ``process_flows_scalar`` for
every batch size — a property the regression tests assert. Batches are cut
early only when a FIFO eviction would reuse a slot that still has unflushed
in-batch state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fuzzy import FuzzyTree
from repro.core.mapping import (CompiledModel, _check_backend,
                                certified_decision_box)
from repro.errors import ConfigError
from repro.net.features import (length_bucket, ipd_bucket, stats_from_buckets,
                                length_bucket_array, ipd_bucket_array)
from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.net.traces import Trace
from repro.dataplane.registers import (FlowStateLayout, RegisterField,
                                       VectorFlowState)

TS_UNIT_SECONDS = 64e-6     # 16-bit timestamp register in 64 us units
TS_MASK = 0xFFFF
DEFAULT_BATCH_SIZE = 256


def _ts_units(ts: float) -> int:
    return int(ts / TS_UNIT_SECONDS) & TS_MASK


def _ts_units_array(ts: np.ndarray) -> np.ndarray:
    return (np.asarray(ts, dtype=np.float64) / TS_UNIT_SECONDS).astype(np.int64) \
        & TS_MASK


def _ipd_bucket_from_units(cur_units: int, prev_units: int) -> int:
    delta_units = (cur_units - prev_units) & TS_MASK
    return ipd_bucket(delta_units * TS_UNIT_SECONDS)


@dataclass
class PacketDecision:
    """One per-packet classification the switch emitted.

    ``seq`` is the packet's position in the replayed trace — the merge key
    that lets sharded replicas reassemble one globally ordered decision
    stream.
    """

    flow_label: int
    predicted: int
    ts: float
    seq: int = -1


def flows_to_trace(flows: list[Flow]) -> tuple[Trace, list, np.ndarray]:
    """Interleave labelled flows into one trace with per-packet keys/labels.

    The single source of the flows -> (trace, canonical keys, label array)
    preamble shared by the batched path, the scalar reference path, and the
    serving dispatcher — so label lookup and key canonicalization can never
    diverge between them.
    """
    label_by_key = {f.key.canonical(): f.label for f in flows}
    trace = Trace.from_flows(flows)
    keys = trace.canonical_keys()
    labels = np.asarray([label_by_key[k] for k in keys], dtype=np.int64)
    return trace, keys, labels


def _emit_decisions(out: list[PacketDecision], labels: np.ndarray,
                    preds: np.ndarray, ts: np.ndarray, rows: np.ndarray,
                    base: int) -> None:
    """Append the decision of every window-complete row of a batch:
    ``preds[k]`` belongs to batch row ``rows[k]``, packet ``base + rows[k]``
    of the trace. Columns convert to Python scalars once, not per field."""
    out.extend(map(PacketDecision, labels[rows].tolist(), preds.tolist(),
                   ts[rows].tolist(), (rows + base).tolist()))


def _group_structure(slots: np.ndarray):
    """Per-batch flow grouping: who else in this batch shares my flow slot.

    Returns ``(uniq, rank, counts, occ, prev_idx, last_idx)`` where ``uniq``
    are the distinct slots, ``rank[i]`` indexes packet i's slot in ``uniq``,
    ``occ[i]`` is packet i's occurrence number within its flow in this batch,
    ``prev_idx[i]`` is the batch index of the previous same-flow packet (or
    -1 when the previous packet predates the batch), and ``last_idx[u]`` is
    the batch index of each flow's final packet (whose post-state is written
    back).
    """
    uniq, rank, counts = np.unique(slots, return_inverse=True, return_counts=True)
    rank = rank.reshape(-1)
    order = np.argsort(rank, kind="stable")
    ends = np.cumsum(counts)
    occ_sorted = np.arange(len(slots), dtype=np.int64) - np.repeat(ends - counts, counts)
    occ = np.empty(len(slots), dtype=np.int64)
    occ[order] = occ_sorted
    prev_idx = np.full(len(slots), -1, dtype=np.int64)
    follow = np.nonzero(occ_sorted > 0)[0]
    prev_idx[order[follow]] = order[follow - 1]
    last_idx = order[ends - 1]
    return uniq, rank, counts, occ, prev_idx, last_idx


def _gather_windows(hist: np.ndarray, rank: np.ndarray, occ: np.ndarray,
                    vals: np.ndarray, counts: np.ndarray, window: int) -> np.ndarray:
    """Effective (N, window) per-packet windows for one register array.

    Packet i's window is the last ``window`` entries of the virtual sequence
    ``stored_history(flow) ++ in-batch values of flow`` ending at packet i —
    i.e. positions ``occ[i] .. occ[i]+window-1`` of that sequence. ``hist``
    is the (n_uniq, window-1) stored history gathered per unique slot.
    """
    hist_cols = window - 1
    occ_table = np.zeros((len(counts), int(counts.max())), dtype=np.int64)
    occ_table[rank, occ] = vals
    pos = occ[:, None] + np.arange(window, dtype=np.int64)[None, :]
    win = occ_table[rank[:, None], np.maximum(pos - hist_cols, 0)]
    if hist_cols:
        from_hist = pos < hist_cols
        stored = hist[rank[:, None], np.minimum(pos, hist_cols - 1)]
        win = np.where(from_hist, stored, win)
    return win


class _BatchedReplayMixin:
    """Shared trace-replay plumbing for the batched runtimes.

    Subclasses provide ``state`` (a :class:`VectorFlowState`), ``window``,
    ``batch_size``, ``required_columns`` (the per-packet columns their
    vectorized step consumes), ``process_packet`` (the scalar reference),
    ``_replay_columns`` (per-packet columnar inputs) and ``_process_batch``
    (the vectorized step). ``decision_cache`` (any object with the
    :class:`repro.serving.FlowDecisionCache` get/put interface) optionally
    short-circuits model invocation for repeating flow windows — exactly,
    since the cache key is the window's packed content.
    """

    required_columns: tuple[str, ...] = ("ts",)
    # FlushStats of the last replay's span stream (None when the replay ran
    # on precomputed spans or fixed batch cuts) — read by the serving engine
    # so a scheduler-driven replay needs no second timestamp pass.
    last_flush_stats = None

    def set_lookup_backend(self, lookup_backend: str) -> None:
        """Switch the model-lookup execution backend, with validation.

        The dispatchers use this to propagate their ``lookup_backend`` onto
        factory-built replicas; it is safe to call between serves (the
        backends are bit-identical, so flow state carries over unchanged).
        """
        _check_backend(lookup_backend)
        if lookup_backend != "index":
            self._enable_tcam(lookup_backend)
        self.lookup_backend = lookup_backend

    def _enable_tcam(self, lookup_backend: str = "tcam") -> None:
        """Subclass hook: validate the TCAM backend applies and compile its
        tables eagerly, so the first serve measures lookups, not compilation."""

    def process_flows(self, flows: list[Flow], batch_size: int | None = None
                      ) -> list[PacketDecision]:
        """Replay the interleaved trace of many labelled flows, batched."""
        trace, keys, labels = flows_to_trace(flows)
        return self.process_trace(trace, labels=labels, batch_size=batch_size,
                                  keys=keys)

    def process_trace(self, trace: Trace, labels: np.ndarray | None = None,
                      batch_size: int | None = None,
                      spans=None, scheduler=None, keys: list | None = None
                      ) -> list[PacketDecision]:
        """Replay a time-ordered trace in batches.

        ``labels`` are per-packet ground-truth labels (default -1); batch
        boundaries come from, in order of precedence: explicit ``spans``
        (an iterable of (start, stop) windows, e.g. a
        :class:`repro.serving.SpanStream`), a ``scheduler`` (a
        :class:`repro.serving.BatchScheduler` applied to the trace's own
        timestamp column), or fixed ``batch_size`` cuts. Decisions come
        back in trace order with ``seq`` set to the packet's trace position.
        """
        if keys is None:
            keys = trace.canonical_keys()
        cols = self._replay_columns(trace)
        return self._replay(
            cols, keys, labels, spans, scheduler, batch_size,
            lambda start, stop: self._batch_columns(cols, trace, start, stop))

    def process_columns(self, cols: dict[str, np.ndarray], keys: list,
                        labels: np.ndarray | None = None,
                        batch_size: int | None = None,
                        spans=None, scheduler=None) -> list[PacketDecision]:
        """Replay per-packet *columns* directly — no :class:`Trace` needed.

        The columnar entry point for shard payloads that crossed a process
        boundary as NumPy arrays (see :class:`repro.serving.ParallelDispatcher`):
        ``cols`` must hold this runtime's ``required_columns`` and ``keys``
        the per-packet canonical :class:`FlowKey` objects, all aligned.
        Identical semantics (and decisions) to :meth:`process_trace` on the
        equivalent trace.
        """
        missing = [c for c in self.required_columns if c not in cols]
        if missing:
            raise ValueError(f"missing replay columns: {missing}")
        if len(keys) != len(cols["ts"]):
            raise ValueError(
                f"{len(keys)} keys for {len(cols['ts'])} packets")
        return self._replay(
            cols, keys, labels, spans, scheduler, batch_size,
            lambda start, stop: {k: v[start:stop] for k, v in cols.items()})

    def _replay(self, cols, keys, labels, spans, scheduler, batch_size,
                batch_columns) -> list[PacketDecision]:
        """Shared core of the trace/columnar replay entry points."""
        n = len(cols["ts"])
        if labels is None:
            labels = np.full(n, -1, dtype=np.int64)
        else:
            labels = np.asarray(labels, dtype=np.int64)
        if spans is None and scheduler is not None:
            spans = scheduler.iter_spans(cols["ts"])
        if spans is None:
            b = int(self.batch_size if batch_size is None else batch_size)
            if b < 1:
                raise ConfigError("batch_size", b, allowed=">= 1")
            spans = [(i, min(i + b, n)) for i in range(0, n, b)]
        decisions: list[PacketDecision] = []
        for start, stop, slots in self._slot_batches(keys, spans):
            if stop == start:
                continue
            self._process_batch(slots, keys[start:stop],
                                batch_columns(start, stop),
                                labels[start:stop], start, decisions)
        self.last_flush_stats = getattr(spans, "stats", None)
        return decisions

    def _batch_columns(self, cols: dict[str, np.ndarray], trace: Trace,
                       start: int, stop: int) -> dict[str, np.ndarray]:
        """One batch's view of the replay columns (overridable for columns
        too large to materialize for the whole trace at once)."""
        return {name: col[start:stop] for name, col in cols.items()}

    def process_flows_scalar(self, flows: list[Flow]) -> list[PacketDecision]:
        """Per-packet reference replay (the pre-batching code path).

        Kept as the ground truth the batched path is regression-tested
        against: identical decisions, identical order, for any batch size.
        """
        trace, _keys, labels = flows_to_trace(flows)
        decisions = []
        for i, packet in enumerate(trace.packets):
            d = self.process_packet(packet, int(labels[i]))
            if d is not None:
                d.seq = i
                decisions.append(d)
        return decisions

    def _slot_batches(self, keys: list, spans: list[tuple[int, int]]):
        """Assign flow slots packet-by-packet, yielding processable batches.

        A requested span is cut early when a FIFO eviction would reuse a
        slot that still has unflushed packets in the pending batch — the
        pending batch is processed first (state written back), then the
        eviction proceeds, preserving scalar-replay semantics exactly.
        """
        state = self.state
        for start, stop in spans:
            i = start
            while i < stop:
                seen: set[int] = set()
                slots: list[int] = []
                j = i
                while j < stop:
                    slot = state.acquire(keys[j], blocked=seen)
                    if slot is None:
                        break
                    slots.append(slot)
                    seen.add(slot)
                    j += 1
                yield i, j, np.asarray(slots, dtype=np.int64)
                i = j

    def _cell_boxes(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lo, hi) boxes on which the decision is provably constant.

        The certificate an L2 insert carries (see
        :class:`repro.serving.TwoLevelDecisionCache`). The default is the
        degenerate point box — always sound; runtimes whose model exposes a
        real decision-boundary structure override this with wider boxes.
        """
        feats = np.asarray(feats, dtype=np.int64)
        return feats.copy(), feats.copy()

    def _scalar_two_level(self, cache, ck, feats: np.ndarray, predict_one) -> int:
        """One packet's decision through a two-level cache (scalar path).

        L1 exact probe -> verified L2 probe (hit promotes into L1) -> model
        + insert at both levels. This is the reference op sequence the
        batched protocol below reproduces bit-identically.
        """
        from repro.serving.cache import _DEC

        got = cache.exact_get(ck)
        if got is not None:
            return int(got)
        feats = np.asarray(feats, dtype=np.int64)
        entry = cache.approx_get(feats)
        if entry is not None:
            pred = int(entry[_DEC])
            cache.promote(ck, pred)
            return pred
        cache.count_miss()
        pred = int(np.asarray(predict_one(feats[None, :]))[0])
        if getattr(cache, "l2_admit", True):
            box_lo, box_hi = self._cell_boxes(feats[None, :])
            cache.insert(ck, feats, box_lo[0], box_hi[0], pred)
        else:
            # L2 gate closed (cold phase): L1-only population, and the box
            # certificate — the expensive part of an insert — never runs.
            cache.insert_l1_only(ck, pred)
        return pred

    def _predict_ready(self, keys: list, ready_rows: np.ndarray,
                       windows: np.ndarray, predict_rows,
                       features_rows=None, predict_feats=None) -> np.ndarray:
        """Predictions for the window-complete rows, through the cache.

        ``keys`` are the batch's canonical flow keys, ``ready_rows`` the
        batch indices of the window-complete packets, ``windows`` the
        (n_ready, W) packed window contents (each row, as bytes, is the
        cache's *window index*), and ``predict_rows(rows)`` invokes the
        model on the given positions of ``ready_rows``. Without a cache the
        model runs on every ready row; with one it runs on misses only —
        bit-identical either way, because the model's decision is a pure
        function of the window. ``features_rows(rows)`` /
        ``predict_feats(feats)`` expose the feature view the two-level
        protocol probes its L2 with (and invokes the model on).
        """
        from repro.serving.cache import PENDING

        n_ready = len(ready_rows)
        cache = self.decision_cache
        if cache is None:
            return np.asarray(predict_rows(np.arange(n_ready, dtype=np.int64)),
                              dtype=np.int64)
        if getattr(cache, "two_level", False) and features_rows is not None:
            return self._predict_ready_two_level(
                keys, ready_rows, windows, features_rows, predict_feats)
        preds = np.empty(n_ready, dtype=np.int64)
        row_bytes = windows.shape[1] * windows.dtype.itemsize
        packed = np.ascontiguousarray(windows).tobytes()
        # The cache is driven in ready-row order, replaying exactly the
        # get/put sequence the scalar path would issue: a miss immediately
        # reserves its slot with a PENDING placeholder (the model's one
        # batched invocation fills the value afterwards), so in-batch window
        # repeats hit — or, when LRU eviction removed the placeholder within
        # this very flush, miss — precisely when the scalar replay's would.
        # Keeps hits + misses == lookups and the whole stat/eviction stream
        # bit-identical to per-packet replay, not just the decisions.
        miss_rows: dict[tuple, list[int]] = {}
        try:
            for r in range(n_ready):
                lo = r * row_bytes
                ck = (keys[int(ready_rows[r])], packed[lo:lo + row_bytes])
                got = cache.get(ck)
                if got is None:
                    miss_rows.setdefault(ck, []).append(r)
                    cache.put(ck, PENDING)
                elif got is PENDING:
                    # Hit on a window first missed earlier in this flush (an
                    # elephant repeating its window): stats already counted
                    # the hit; fan the pending prediction out to this row too.
                    miss_rows.setdefault(ck, []).append(r)
                else:
                    preds[r] = got
            if miss_rows:
                first = np.asarray([rows[0] for rows in miss_rows.values()],
                                   dtype=np.int64)
                got = np.asarray(predict_rows(first), dtype=np.int64)
        except BaseException:
            # A failed model invocation must not strand placeholders: a
            # stale PENDING would later be handed out as a decision (scalar
            # path) or mistaken for an in-flush repeat (batched path).
            for ck in miss_rows:
                cache.discard_pending(ck)
            raise
        for k, (ck, rows) in enumerate(miss_rows.items()):
            preds[rows] = got[k]
            cache.fill(ck, int(got[k]))
        return preds

    def _predict_ready_two_level(self, keys: list, ready_rows: np.ndarray,
                                 windows: np.ndarray, features_rows,
                                 predict_feats) -> np.ndarray:
        """Batched replay of the two-level scalar op sequence, in two passes.

        Pass 1 walks the ready rows in order, issuing exactly the scalar
        path's L1 probes and (for L1 misses) its L1 inserts — reserved with
        PENDING, since the decision may come from the L2 or the batch's one
        model call. A put's *value* never affects LRU recency or eviction
        choice, so the L1 state stream is bit-identical to per-packet
        replay. Pass 2 walks the L1-missing rows in the same order against
        the L2: verified hits resolve immediately (or join the pending
        entry's model group when the in-flush creator hasn't computed yet);
        double misses reserve a pending L2 entry and form a model group.
        One model invocation covers the group leaders; fills then resolve
        every reservation — again exactly the scalar insert stream, so
        exact/approx/miss counts, eviction counts, and decisions all match
        per-packet replay bit for bit (regression-tested).
        """
        from repro.serving.cache import PENDING, _DEC, _GROUP

        cache = self.decision_cache
        n_ready = len(ready_rows)
        preds = np.empty(n_ready, dtype=np.int64)
        row_bytes = windows.shape[1] * windows.dtype.itemsize
        packed = np.ascontiguousarray(windows).tobytes()
        cks: list = [None] * n_ready
        l2_rows: list[int] = []
        joiners: dict = {}       # L1 key -> rows that hit its PENDING entry
        miss_groups: dict = {}   # group L1 key -> rows one model row resolves
        try:
            for r in range(n_ready):
                lo_b = r * row_bytes
                ck = (keys[int(ready_rows[r])], packed[lo_b:lo_b + row_bytes])
                cks[r] = ck
                got = cache.exact_get(ck)
                if got is None:
                    cache.promote(ck, PENDING)
                    l2_rows.append(r)
                elif got is PENDING:
                    joiners.setdefault(ck, []).append(r)
                else:
                    preds[r] = got
            if l2_rows:
                rows_arr = np.asarray(l2_rows, dtype=np.int64)
                feats = np.asarray(features_rows(rows_arr), dtype=np.int64)
                l2_admit = getattr(cache, "l2_admit", True)
                if l2_admit:
                    box_lo, box_hi = self._cell_boxes(feats)
                j_of = {r: j for j, r in enumerate(l2_rows)}
                for j, r in enumerate(l2_rows):
                    entry = cache.approx_get(feats[j])
                    if entry is not None:
                        dec = entry[_DEC]
                        if dec is PENDING:
                            miss_groups.setdefault(entry[_GROUP], []).append(r)
                        else:
                            preds[r] = dec
                    else:
                        cache.count_miss()
                        if l2_admit:
                            cache.reserve_l2(cks[r], feats[j],
                                             box_lo[j], box_hi[j])
                        else:
                            # L2 gate closed: no reservation, no certificate;
                            # the row still leads its own model group, which
                            # is exactly what the gated scalar path does.
                            cache.skip_l2_insert()
                        miss_groups.setdefault(cks[r], []).append(r)
                if miss_groups:
                    leaders = np.asarray(
                        [j_of[rows[0]] for rows in miss_groups.values()],
                        dtype=np.int64)
                    got = np.asarray(predict_feats(feats[leaders]),
                                     dtype=np.int64)
        except BaseException:
            # A failed model invocation must not strand reservations at
            # either level (see the single-level path above).
            for r in l2_rows:
                cache.discard_pending(cks[r])
            raise
        for k, rows in enumerate(miss_groups.values()):
            preds[rows] = got[k]
        for r in l2_rows:
            cache.fill(cks[r], int(preds[r]))
        creator = {cks[r]: r for r in l2_rows}
        for ck, rows in joiners.items():
            preds[rows] = preds[creator[ck]]
        return preds


@dataclass
class WindowedClassifierRuntime(_BatchedReplayMixin):
    """Classify every packet once its flow has a full token window.

    ``model`` is anything exposing the integer decision interface
    ``predict(x_int) -> class ids`` — a :class:`CompiledModel` or a placed
    :class:`repro.dataplane.Pipeline`; the batched replay invokes it once
    per batch. See the module docstring for the per-flow register layout
    (136 bits/flow at the default window of 8) and eviction behavior.
    ``decision_cache`` (a :class:`repro.serving.FlowDecisionCache`) makes
    repeating windows of already-classified flows skip the model entirely.
    ``lookup_backend`` selects how a :class:`CompiledModel`'s fuzzy tables
    are answered — ``"index"`` (tree walk) or ``"tcam"`` (vectorized
    prioritized-TCAM emulation); both are bit-identical.
    """

    model: CompiledModel
    feature_mode: str = "seq"          # "seq" (interleaved tokens) | "stats"
    window: int = 8
    capacity: int = 1_000_000
    batch_size: int = DEFAULT_BATCH_SIZE
    decision_cache: object = None
    lookup_backend: str = "index"
    state: VectorFlowState = field(init=False)

    required_columns = ("ts", "length")

    def __post_init__(self):
        if self.feature_mode not in ("seq", "stats"):
            raise ConfigError("feature_mode", self.feature_mode,
                              allowed=("seq", "stats"))
        self.set_lookup_backend(self.lookup_backend)
        hist = self.window - 1
        layout = FlowStateLayout(fields=[
            RegisterField("prev_ts", 16),
            RegisterField("count", 8),
            RegisterField("len_hist", 8, count=hist),
            RegisterField("ipd_hist", 8, count=hist),
        ])
        self.state = VectorFlowState(layout, capacity=self.capacity)

    def _enable_tcam(self, lookup_backend: str = "tcam") -> None:
        if not isinstance(self.model, CompiledModel):
            raise ConfigError(
                "lookup_backend", lookup_backend,
                reason="requires a CompiledModel; a placed Pipeline executes "
                       "its own table layout")
        from repro.dataplane.tcam import tcam_table_report
        tcam_table_report(self.model)   # compile + cache every fuzzy table
        if lookup_backend == "tcam-pruned":
            # Warm the pruned-variant tables and their interval pre-indexes
            # too, so the first serve measures pruned lookups.
            for layer in self.model.layers:
                for table in layer.tables:
                    if table.kind != "fuzzy":
                        continue
                    seg = table.tcam_segment(pruned=True)
                    if seg.encoding == "flat":
                        seg.flat.pruned_index()

    def _model_predict(self, x: np.ndarray) -> np.ndarray:
        if self.lookup_backend == "index":
            return self.model.predict(x)
        return self.model.predict(x, lookup_backend=self.lookup_backend)

    def _cell_boxes(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.model, CompiledModel):
            cache = getattr(self, "decision_cache", None)
            shift = None
            if getattr(cache, "two_level", False):
                shift = cache.l2.quantize_shift
            return certified_decision_box(self.model, feats,
                                          quantize_shift=shift)
        return super()._cell_boxes(feats)

    @property
    def bits_per_flow(self) -> int:
        return self.state.layout.bits_per_flow

    def _features(self, lens: list[int], ipds: list[int]) -> np.ndarray:
        if self.feature_mode == "stats":
            return stats_from_buckets(lens, ipds).astype(np.int64)
        tokens = np.empty(2 * self.window, dtype=np.int64)
        tokens[0::2] = lens
        tokens[1::2] = ipds
        return tokens

    def _features_batch(self, win_len: np.ndarray, win_ipd: np.ndarray) -> np.ndarray:
        if self.feature_mode == "stats":
            n, w = win_len.shape
            take = min(6, w)
            first_len = np.zeros((n, 6), dtype=np.int64)
            first_len[:, :take] = win_len[:, :take]
            first_ipd = np.zeros((n, 6), dtype=np.int64)
            first_ipd[:, :take] = win_ipd[:, :take]
            return np.column_stack([
                win_len.max(axis=1), win_len.min(axis=1),
                win_ipd.max(axis=1), win_ipd.min(axis=1),
                first_len, first_ipd])
        n, w = win_len.shape
        tokens = np.empty((n, 2 * w), dtype=np.int64)
        tokens[:, 0::2] = win_len
        tokens[:, 1::2] = win_ipd
        return tokens

    def process_packet(self, packet: Packet, flow_label: int) -> PacketDecision | None:
        """Feed one packet; returns a decision when a window is available."""
        key = packet.key.canonical()
        slot = self.state.acquire(key)
        cols = self.state.columns
        count = int(cols["count"][slot, 0])
        cur_units = _ts_units(packet.ts)
        len_b = length_bucket(packet.length)
        ipd_b = (_ipd_bucket_from_units(cur_units, int(cols["prev_ts"][slot, 0]))
                 if count else 0)

        decision = None
        if count >= self.window - 1:
            lens = [int(v) for v in cols["len_hist"][slot]] + [len_b]
            ipds = [int(v) for v in cols["ipd_hist"][slot]] + [ipd_b]
            cache = self.decision_cache
            pred = None
            if cache is not None:
                # Same packed layout as the batched path: len window ++ ipd
                # window, one byte per bucket.
                ck = (key, np.asarray(lens + ipds, dtype=np.uint8).tobytes())
                if getattr(cache, "two_level", False):
                    pred = self._scalar_two_level(
                        cache, ck, self._features(lens, ipds),
                        self._model_predict)
                else:
                    pred = cache.get(ck)
            if pred is None:
                x = self._features(lens, ipds)[None, :]
                pred = int(self._model_predict(x)[0])
                if cache is not None:
                    cache.put(ck, pred)
            decision = PacketDecision(flow_label=flow_label, predicted=int(pred),
                                      ts=packet.ts)

        self.state.shift_in(key, "len_hist", len_b)
        self.state.shift_in(key, "ipd_hist", ipd_b)
        self.state.write(key, "prev_ts", cur_units)
        self.state.write(key, "count", min(count + 1, 255))
        return decision

    def _replay_columns(self, trace: Trace) -> dict[str, np.ndarray]:
        return trace.packet_columns()

    def _process_batch(self, slots: np.ndarray, keys: list,
                       cols: dict[str, np.ndarray], labels: np.ndarray,
                       base: int, out: list[PacketDecision]) -> None:
        ts = cols["ts"]
        cur_units = _ts_units_array(ts)
        len_b = length_bucket_array(cols["length"])
        uniq, rank, counts, occ, prev_idx, last_idx = _group_structure(slots)
        c = self.state.columns
        cnt0 = c["count"][uniq, 0].astype(np.int64)
        count_i = cnt0[rank] + occ
        prev0 = c["prev_ts"][uniq, 0].astype(np.int64)
        prev_units = np.where(prev_idx >= 0,
                              cur_units[np.maximum(prev_idx, 0)], prev0[rank])
        delta_units = (cur_units - prev_units) & TS_MASK
        ipd_b = np.where(count_i > 0,
                         ipd_bucket_array(delta_units * TS_UNIT_SECONDS), 0)

        hist_len = c["len_hist"][uniq].astype(np.int64)
        hist_ipd = c["ipd_hist"][uniq].astype(np.int64)
        win_len = _gather_windows(hist_len, rank, occ, len_b, counts, self.window)
        win_ipd = _gather_windows(hist_ipd, rank, occ, ipd_b, counts, self.window)

        ready_rows = np.nonzero(count_i >= self.window - 1)[0]
        if len(ready_rows):
            ready_len, ready_ipd = win_len[ready_rows], win_ipd[ready_rows]
            windows = np.concatenate([ready_len, ready_ipd],
                                     axis=1).astype(np.uint8)
            preds = self._predict_ready(
                keys, ready_rows, windows,
                lambda rows: self._model_predict(
                    self._features_batch(ready_len[rows], ready_ipd[rows])),
                features_rows=lambda rows: self._features_batch(
                    ready_len[rows], ready_ipd[rows]),
                predict_feats=self._model_predict)
            _emit_decisions(out, labels, preds, ts, ready_rows, base)

        c["len_hist"][uniq] = win_len[last_idx, 1:]
        c["ipd_hist"][uniq] = win_ipd[last_idx, 1:]
        c["prev_ts"][uniq, 0] = cur_units[last_idx]
        c["count"][uniq, 0] = np.minimum(cnt0 + counts, 255)


@dataclass
class TwoStageRuntime(_BatchedReplayMixin):
    """Per-packet fuzzy extraction + windowed index classification (CNN-L).

    ``extractor_tree`` (optionally behind a refined ``feature_fn``) maps
    each packet to a fuzzy index of ``idx_bits`` bits; only indexes — plus a
    16-bit previous timestamp when the feature uses IPD — are stored per
    flow. ``slot_values[s]`` is the (n_leaves, n_classes) int table the
    packet in window slot ``s`` contributes; logits are the SumReduce of all
    slot contributions, as in Advanced Primitive Fusion. This is the
    paper's "Flow Scalability" design that gets CNN-L to 28-72 stateful
    bits per flow (see the module docstring for the register layout).

    Batched replay extracts the whole batch's fuzzy indexes with one
    ``feature_fn`` / tree evaluation and one SumReduce gather per window
    slot; ``feature_fn`` must therefore accept (N, raw_bytes) inputs and an
    optional per-row IPD-bucket array (scalar calls pass a single row).
    """

    extractor_tree: FuzzyTree
    slot_values: list[np.ndarray]
    n_classes: int
    idx_bits: int = 4
    raw_bytes: int = 60
    window: int = 8
    capacity: int = 1_000_000
    needs_ipd: bool = False
    # Optional refined-feature stage applied to the raw bytes (and the IPD
    # bucket, when needs_ipd) before the fuzzy tree — the paper's NN feature
    # extraction, itself realized as per-segment tables on the switch.
    feature_fn: object = None
    batch_size: int = DEFAULT_BATCH_SIZE
    decision_cache: object = None
    # "tcam" runs the per-packet extractor tree — the table that *is* TCAM
    # range rules on the switch — through the vectorized emulation; the
    # window SumReduce stays SRAM gathers under either backend, as on the
    # hardware. Requires raw integer byte keys (no refined feature_fn).
    lookup_backend: str = "index"
    state: VectorFlowState = field(init=False)
    # Compiled extractor TCAM per encoding choice ("auto" | "pruned") —
    # the pruned variant usually stays levelwise (the 60-dim tree's flat
    # expansion blows past the pruning threshold), making prune a no-op.
    _extractor_tcam: dict = field(init=False, default_factory=dict, repr=False)

    required_columns = ("ts", "payload")

    def __post_init__(self):
        if len(self.slot_values) != self.window:
            raise ConfigError(
                "slot_values", len(self.slot_values),
                allowed=f"{self.window} tables (one per window slot)")
        self.set_lookup_backend(self.lookup_backend)
        fields = [RegisterField("count", 8),
                  RegisterField("idx_hist", self.idx_bits, count=self.window - 1)]
        if self.needs_ipd:
            fields.insert(0, RegisterField("prev_ts", 16))
        self.state = VectorFlowState(FlowStateLayout(fields=fields),
                                     capacity=self.capacity)

    @property
    def bits_per_flow(self) -> int:
        return self.state.layout.bits_per_flow

    @property
    def _win_dtype(self) -> np.dtype:
        """Narrowest dtype holding one fuzzy index (the cache-key packing)."""
        return np.dtype(np.uint8 if self.idx_bits <= 8 else np.uint16)

    def _enable_tcam(self, lookup_backend: str = "tcam") -> None:
        if self.feature_fn is not None:
            raise ConfigError(
                "lookup_backend", lookup_backend,
                reason="needs integer raw-byte keys; a refined feature_fn "
                       "produces float features the fixed-width TCAM key "
                       "cannot encode")
        enc = "pruned" if lookup_backend == "tcam-pruned" else "auto"
        if enc not in self._extractor_tcam:
            from repro.dataplane.tcam import TcamSegment
            self._extractor_tcam[enc] = TcamSegment.from_tree(
                self.extractor_tree, key_bits=8, signed=False, encoding=enc)

    def _tree_indices(self, feats: np.ndarray) -> np.ndarray:
        """Fuzzy extraction for a (N, raw_bytes) batch, backend-dispatched."""
        if self.lookup_backend != "index":
            pruned = self.lookup_backend == "tcam-pruned"
            seg = self._extractor_tcam["pruned" if pruned else "auto"]
            return seg.lookup_indices(feats, pruned=pruned)
        return self.extractor_tree.predict_index(feats)

    def _predict_windows(self, win_idx: np.ndarray) -> np.ndarray:
        """Decisions for a (N, window) batch of fuzzy-index windows.

        The model invocation of this runtime: per-slot SumReduce gathers +
        final argmax — also the ``predict_feats`` hook of the two-level
        cache protocol (its feature view *is* the index window).
        """
        win_idx = np.asarray(win_idx, dtype=np.int64)
        logits = np.zeros((len(win_idx), self.n_classes), dtype=np.int64)
        for slot_pos in range(self.window):
            logits += self.slot_values[slot_pos][win_idx[:, slot_pos]]
        return np.argmax(logits, axis=1)

    def _extract_index(self, packet: Packet, ipd_bucket: int | None) -> int:
        vec = np.zeros(self.raw_bytes, dtype=np.float64)
        take = min(packet.payload_len, self.raw_bytes)
        vec[:take] = packet.payload[:take]
        if self.feature_fn is not None:
            vec = np.asarray(self.feature_fn(vec[None, :], ipd_bucket))[0]
            idx = int(self.extractor_tree.predict_index(vec))
        else:
            idx = int(self._tree_indices(vec[None, :])[0])
        return min(idx, (1 << self.idx_bits) - 1)

    def process_packet(self, packet: Packet, flow_label: int) -> PacketDecision | None:
        key = packet.key.canonical()
        slot = self.state.acquire(key)
        cols = self.state.columns
        count = int(cols["count"][slot, 0])
        ipd_b = None
        if self.needs_ipd:
            cur_units = _ts_units(packet.ts)
            ipd_b = (_ipd_bucket_from_units(cur_units, int(cols["prev_ts"][slot, 0]))
                     if count else 0)
        idx = self._extract_index(packet, ipd_b)

        decision = None
        if count >= self.window - 1:
            indexes = [int(v) for v in cols["idx_hist"][slot]] + [idx]
            cache = self.decision_cache
            pred = None
            if cache is not None:
                ck = (key, np.asarray(indexes, dtype=self._win_dtype).tobytes())
                if getattr(cache, "two_level", False):
                    pred = self._scalar_two_level(
                        cache, ck, np.asarray(indexes, dtype=np.int64),
                        self._predict_windows)
                else:
                    pred = cache.get(ck)
            if pred is None:
                logits = np.zeros(self.n_classes, dtype=np.int64)
                for slot_pos, slot_idx in enumerate(indexes):
                    logits += self.slot_values[slot_pos][slot_idx]
                pred = int(np.argmax(logits))
                if cache is not None:
                    cache.put(ck, pred)
            decision = PacketDecision(flow_label=flow_label, predicted=int(pred),
                                      ts=packet.ts)

        self.state.shift_in(key, "idx_hist", idx)
        if self.needs_ipd:
            self.state.write(key, "prev_ts", cur_units)
        self.state.write(key, "count", min(count + 1, 255))
        return decision

    def _replay_columns(self, trace: Trace) -> dict[str, np.ndarray]:
        return {"ts": np.asarray([p.ts for p in trace.packets], dtype=np.float64)}

    def _batch_columns(self, cols: dict[str, np.ndarray], trace: Trace,
                       start: int, stop: int) -> dict[str, np.ndarray]:
        # Raw bytes are ~480 B/packet as float64: materialize per batch, not
        # for the whole trace.
        batch = super()._batch_columns(cols, trace, start, stop)
        batch["payload"] = trace.payload_matrix(self.raw_bytes, start, stop)
        return batch

    def _process_batch(self, slots: np.ndarray, keys: list,
                       cols: dict[str, np.ndarray], labels: np.ndarray,
                       base: int, out: list[PacketDecision]) -> None:
        ts = cols["ts"]
        uniq, rank, counts, occ, prev_idx, last_idx = _group_structure(slots)
        c = self.state.columns
        cnt0 = c["count"][uniq, 0].astype(np.int64)
        count_i = cnt0[rank] + occ
        ipd_b = None
        if self.needs_ipd:
            cur_units = _ts_units_array(ts)
            prev0 = c["prev_ts"][uniq, 0].astype(np.int64)
            prev_units = np.where(prev_idx >= 0,
                                  cur_units[np.maximum(prev_idx, 0)], prev0[rank])
            delta_units = (cur_units - prev_units) & TS_MASK
            ipd_b = np.where(count_i > 0,
                             ipd_bucket_array(delta_units * TS_UNIT_SECONDS), 0)

        feats = cols["payload"]
        if self.feature_fn is not None:
            feats = np.asarray(self.feature_fn(feats, ipd_b))
            idx = np.asarray(self.extractor_tree.predict_index(feats),
                             dtype=np.int64)
        else:
            idx = np.asarray(self._tree_indices(feats), dtype=np.int64)
        idx = np.minimum(idx, (1 << self.idx_bits) - 1)

        hist_idx = c["idx_hist"][uniq].astype(np.int64)
        win_idx = _gather_windows(hist_idx, rank, occ, idx, counts, self.window)

        ready_rows = np.nonzero(count_i >= self.window - 1)[0]
        if len(ready_rows):
            ready_win = win_idx[ready_rows]
            preds = self._predict_ready(
                keys, ready_rows, ready_win.astype(self._win_dtype),
                lambda rows: self._predict_windows(ready_win[rows]),
                features_rows=lambda rows: ready_win[rows],
                predict_feats=self._predict_windows)
            _emit_decisions(out, labels, preds, ts, ready_rows, base)

        c["idx_hist"][uniq] = win_idx[last_idx, 1:]
        if self.needs_ipd:
            c["prev_ts"][uniq, 0] = cur_units[last_idx]
        c["count"][uniq, 0] = np.minimum(cnt0 + counts, 255)
