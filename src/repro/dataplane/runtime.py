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
preallocated NumPy array per register field (or per bank of same-shaped
fields), rows indexed by a flow-slot table (packed canonical 5-tuple -> row)
with FIFO eviction at ``capacity``.

:class:`WindowedClassifierRuntime` (window ``W``, default 8)::

    prev_ts   16 bits        last packet's timestamp in 64 us units
    count      8 bits        packets seen (saturating at 255)
    len_hist   8 bits x W-1  length buckets of the last W-1 packets
    ipd_hist   8 bits x W-1  IPD buckets of the last W-1 packets
                             -> 16 + 8 + 7*8 + 7*8 = 136 bits/flow at W=8

Each runtime's history fields are the lanes of one ``hist`` bank, a
``(capacity, L, W-1)`` array (``len_hist`` and ``ipd_hist``, ``L`` = 2; or
``idx_hist``, ``L`` = 1), so a batch gathers and writes back every lane at
once.

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

``process_flows`` / ``process_trace`` replay a trace in the two halves of
the switch pipeline, one skeleton for both runtimes
(:class:`_BatchedReplayMixin`):

- a **register step** per NumPy batch, which must see a flow's packets in
  order: flow-slot resolution, the IPD bucket (when the layout has
  ``prev_ts``), the runtime's lanes, the window gather and the write-back.
  A batch spans ``REGISTER_STEP_ROWS`` packets unless the replay (or the
  runtime's ``batch_size``) names its own span: the switch has no batch,
  so the span only sets how often the step's fixed cost is paid;
- a **model stage**, a pure function of the staged ready rows' windows: the
  runtime's ``_decide`` (features and the compiled model, or CNN-L's
  per-slot SumReduce) and the decisions, for every ``MODEL_STAGE_ROWS``
  rows that wait between batches and at replay end — about twice per
  closed-loop replay, not once per batch. Only the windowed runtime with a
  decision cache decides in-batch.

Per-packet values (the 64 us timestamp unit, the length bucket) are computed
once per replay, so a batch pays a fixed cost of NumPy calls: one window
table over all lanes (linear in the batch's rows), one write-back, and the
IPD buckets as one gather from a table of every 16-bit timestamp
difference. A packet's window may span stored history and earlier in-batch
packets of its flow, so batched decisions are bit-identical to the
per-packet scalar oracle (:class:`repro.eval.oracle.ScalarOracle`, which
shares no code with this module) for every batch and stage size. A batch is
cut early only when a FIFO eviction would reuse a slot that still has
unflushed in-batch state.
Decisions are column slices, concatenated into one
:class:`~repro.dataplane.decisions.DecisionBatch` per replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fuzzy import FuzzyTree
from repro.core.mapping import (CompiledModel, _check_backend,
                                certified_decision_box)
from repro.errors import ConfigError
from repro.net.features import length_bucket_array, ipd_bucket_array
from repro.net.flow import Flow
from repro.net.traces import (KEY_COLUMN_NAMES, TS_UNIT_SECONDS, Trace,
                              flow_ids, pack_flow_keys)
from repro.dataplane.decisions import DecisionBatch
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.schema import WIRE_COLUMNS
from repro.dataplane.registers import (FlowBatch, FlowStateLayout,
                                       RegisterField, VectorFlowState)

TS_MASK = 0xFFFF            # 16-bit timestamp register in 64 us units
# Rows a closed-loop register step resolves and writes back at once, unless
# a replay names its own span: the step's fixed cost of NumPy calls is paid
# per span, and the step's working set stays bounded on a long replay.
REGISTER_STEP_ROWS = 4096
# Ready rows a model stage buffers before one model call: the model's fixed
# cost is paid per stage, not per batch, and a stage's working set stays
# bounded on a long replay.
MODEL_STAGE_ROWS = 4096
# Rows one decision-box certificate call covers. Its temporaries cost ~35 KB
# per row, so a register step's L2 inserts are certified in pieces of this
# many rows (the certificate is per row, so the pieces change no box).
CERTIFICATE_ROWS = 128


def _ts_units_array(ts: np.ndarray) -> np.ndarray:
    return (np.asarray(ts, dtype=np.float64) / TS_UNIT_SECONDS).astype(np.int64) \
        & TS_MASK


# The IPD bucket of every 16-bit timestamp difference: the batched step's
# one gather, built with the vectorized bucketing's own float64 expression.
_IPD_BUCKET_OF_UNITS = ipd_bucket_array(
    np.arange(TS_MASK + 1) * TS_UNIT_SECONDS).astype(np.uint8)


def flows_to_trace(flows: list[Flow]) -> tuple[Trace, np.ndarray]:
    """Interleave labelled flows into one trace with per-packet labels.

    The single source of the flows -> (trace, label array) preamble shared
    by the batched path, the scalar oracle's callers, and the serving
    dispatcher — so label lookup can never diverge between them. A packet
    takes the label of the (last) flow with its canonical 5-tuple.
    """
    trace = Trace.from_flows(flows)
    keys = np.array([f.key for f in flows], dtype=np.int64).reshape(-1, 5)
    flow_of = flow_ids(pack_flow_keys(dict(zip(KEY_COLUMN_NAMES, keys.T))))
    label_of = dict(zip(flow_of, (f.label for f in flows)))
    labels = np.fromiter(map(label_of.__getitem__, flow_ids(trace.key_words)),
                         dtype=np.int64, count=len(trace))
    return trace, labels


def replay_labels(labels, n: int) -> np.ndarray:
    """Per-packet labels of an ``n``-packet replay as int64 (default -1).

    A wrong length is a :class:`ConfigError`, raised before any replay
    touches flow state.
    """
    if labels is None:
        return np.full(n, -1, dtype=np.int64)
    if len(labels) != n:
        raise ConfigError("labels", len(labels),
                          allowed=f"{n} (one per packet)")
    return np.asarray(labels, dtype=np.int64)


class _ReplayOutput:
    """One replay's decisions in trace order, and its model-stage buffer.

    A batch ``stage``s its ready rows' windows; between batches the replay
    ``run_stages``, which decides every full stage of exactly
    ``MODEL_STAGE_ROWS`` rows with one ``_model_stage`` call, and
    ``decisions`` decides the rest at replay end. A runtime that decides
    inside the batch (the windowed runtime with a decision cache)
    ``append``s finished parts instead. Each replay builds its own, so a
    replay that raises leaves no staged row behind.
    """

    __slots__ = ("runtime", "parts", "append", "staged", "rows")

    def __init__(self, runtime):
        self.runtime = runtime
        self.parts: list[DecisionBatch] = []
        self.append = self.parts.append
        self.staged: list[tuple] = []
        self.rows = 0

    def stage(self, batch: FlowBatch, rows: np.ndarray, win: np.ndarray,
              labels: np.ndarray, ts: np.ndarray, base: int) -> None:
        """Buffer a batch's ready rows ``rows`` (trace packets ``base +
        rows``): their windows and every decision column but the prediction."""
        self.staged.append((win, rows + base, labels[rows], ts[rows]))
        self.rows += len(rows)

    def run_stages(self) -> None:
        """Decide staged rows in stages of exactly ``MODEL_STAGE_ROWS``
        while that many wait, so a stage's working set is bounded whatever
        the batch size; the staged part that crosses the limit is split."""
        while self.rows >= MODEL_STAGE_ROWS:
            self.append(self.runtime._model_stage(self._next_stage()))

    def _next_stage(self) -> list[tuple]:
        """Take the first ``MODEL_STAGE_ROWS`` staged rows off the buffer."""
        staged, room, i = self.staged, MODEL_STAGE_ROWS, 0
        while len(staged[i][1]) < room:
            room -= len(staged[i][1])
            i += 1
        head = tuple(col[:room] for col in staged[i])
        rest = tuple(col[room:] for col in staged[i])
        self.staged = [rest, *staged[i + 1:]] if len(rest[1]) else \
            staged[i + 1:]
        self.rows -= MODEL_STAGE_ROWS
        return [*staged[:i], head]

    def decisions(self) -> DecisionBatch:
        """Run the last model stage; the replay's one :class:`DecisionBatch`
        (a replay of one part is returned as is, not copied)."""
        if self.staged:
            self.append(self.runtime._model_stage(self.staged))
        parts = self.parts
        return parts[0] if len(parts) == 1 else DecisionBatch.concat(parts)


def _group_structure(batch: FlowBatch):
    """Per-batch flow grouping: who else in this batch shares my flow.

    Returns ``(counts, first, occ, pos, prev_idx, last_idx)`` over the
    batch's flows (``batch.slots`` / ``batch.rank``): ``counts[u]`` packets
    of flow u are in the batch, ``first[u]`` is where they begin in the
    batch sorted by flow and ``pos[i]`` is packet i's place in that order,
    ``occ[i]`` is packet i's occurrence number within its flow,
    ``prev_idx[i]`` the batch index of the previous same-flow packet (or -1
    when the previous packet predates the batch), and ``last_idx[u]`` the
    batch index of each flow's final packet (whose post-state is written
    back).
    """
    rank, n = batch.rank, batch.rows
    counts = np.bincount(rank, minlength=len(batch.slots))
    order = np.argsort(rank, kind="stable")
    ends = np.cumsum(counts)
    first = ends - counts
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    occ = pos - first.take(rank)
    prev_idx = np.where(occ > 0, order.take(pos - 1), -1)
    last_idx = order.take(ends - 1)
    return counts, first, occ, pos, prev_idx, last_idx


def _gather_windows(hist: np.ndarray, first: np.ndarray, rank: np.ndarray,
                    pos: np.ndarray, vals: np.ndarray, window: int,
                    ready_rows: np.ndarray, last_idx: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The ready rows' windows and every flow's post-batch history.

    Packet i's window in lane c is the last ``window`` entries of the
    virtual sequence ``stored_history(flow, c) ++ in-batch values of flow``
    ending at packet i. ``hist`` is the ``(n_uniq, k, window-1)`` stored
    history gathered per unique slot, ``vals`` the ``(N, k)`` in-batch
    values in ``hist``'s dtype, and ``first`` / ``pos`` place flows and
    packets in the batch sorted by flow (:func:`_group_structure`). Returns
    the ``(n_ready, k, window)`` windows of ``ready_rows`` and the
    ``(n_uniq, k, window-1)`` history each flow's last packet ``last_idx``
    leaves behind.

    The flows' sequences are laid end to end in one table of ``n_uniq *
    (window-1) + N`` cells (a cell holds all ``k`` lanes of one entry), so
    the working set is linear in rows however long a flow runs in the
    batch. A flow's stored history and a packet's window are then runs of
    consecutive cells: two scatters fill the table, and each wanted window
    is one gather.
    """
    n_uniq, k, hist_cols = hist.shape
    n = len(rank)
    cells = n_uniq * hist_cols + n
    start = rank * hist_cols + pos           # packet i's window, in cells
    table = np.empty(cells, dtype=f"V{k * hist.itemsize}")
    table[start + hist_cols] = vals.view(table.dtype)[:, 0]

    # Every run of hist_cols (then window) consecutive cells, as views.
    runs = np.ndarray(cells - hist_cols + 1, dtype=(hist.dtype, (hist_cols, k)),
                      buffer=table, strides=table.strides)
    runs[np.arange(0, n_uniq * hist_cols, hist_cols) + first] = \
        hist.transpose(0, 2, 1)
    windows = np.ndarray(cells - window + 1, dtype=(hist.dtype, (window, k)),
                         buffer=table, strides=table.strides)
    return (windows[start[ready_rows]].transpose(0, 2, 1),
            windows[start[last_idx]][:, 1:].transpose(0, 2, 1))


class _BatchedReplayMixin:
    """The batched runtimes' shared replay: register step and model stage.

    Subclasses provide ``state`` (a :class:`VectorFlowState` with a
    ``count`` field, a ``hist`` bank and, for IPD, a ``prev_ts`` field),
    ``window``, ``batch_size``, ``required_columns`` (the per-packet columns
    their replay consumes), ``_replay_columns`` (the step's per-packet
    inputs, derived once per replay), ``_lanes`` (a batch's ``(rows, L)``
    register-lane values, in the ``hist`` bank's dtype) and ``_decide``
    (classes of ``(n, L, window)`` windows).
    """

    required_columns: tuple[str, ...] = ("ts",)

    def process_flows(self, flows: list[Flow], batch_size: int | None = None
                      ) -> DecisionBatch:
        """Replay the interleaved trace of many labelled flows, batched."""
        trace, labels = flows_to_trace(flows)
        return self.process_trace(trace, labels=labels, batch_size=batch_size)

    def process_trace(self, trace: Trace, labels: np.ndarray | None = None,
                      batch_size: int | None = None) -> DecisionBatch:
        """Replay a time-ordered trace in fixed ``batch_size`` cuts.

        ``labels`` are per-packet ground-truth labels (default -1);
        ``batch_size`` defaults to the runtime's own, and that to
        ``REGISTER_STEP_ROWS`` (read at call time). Decisions come back as
        one :class:`DecisionBatch` in trace order, ``seq`` the packet's
        trace position.
        """
        cols = self._replay_columns(trace.packet_columns())
        return self._replay(
            cols, trace.key_words, labels, batch_size,
            lambda start, stop: self._batch_columns(cols, trace, start, stop))

    def process_columns(self, cols: dict[str, np.ndarray],
                        labels: np.ndarray | None = None,
                        batch_size: int | None = None) -> DecisionBatch:
        """Replay per-packet *columns* directly — no :class:`Trace` needed.

        The columnar entry point for shard payloads that crossed a process
        boundary as NumPy arrays (see :class:`repro.serving.ParallelDispatcher`):
        ``cols`` must hold this runtime's ``required_columns`` and the five
        5-tuple key columns (raw or canonical), all aligned. Identical
        semantics (and decisions) to :meth:`process_trace` on the
        equivalent trace. Missing columns raise ``ValueError`` and columns
        of different lengths a :class:`~repro.errors.SchemaError`, both
        before any flow state changes.
        """
        missing = [c for c in (*self.required_columns, *KEY_COLUMN_NAMES)
                   if c not in cols]
        if missing:
            raise ValueError(f"missing replay columns: {missing}")
        WIRE_COLUMNS.check_aligned(
            cols, context=f"{type(self).__name__}.process_columns")
        step_cols = self._replay_columns(cols)
        return self._replay(
            step_cols, pack_flow_keys(cols), labels, batch_size,
            lambda start, stop: {k: v[start:stop] for k, v in step_cols.items()})

    def _replay(self, cols, key_words, labels, batch_size,
                batch_columns) -> DecisionBatch:
        """Shared core of the trace/columnar replay entry points.

        Each ``batch_size`` span (by default ``REGISTER_STEP_ROWS``) is
        resolved against the flow table with one
        :meth:`VectorFlowState.acquire` per batch; when the table cuts a
        batch short (an eviction would hit a slot the batch still uses),
        the resolved prefix is processed — its state written back — and the
        rest of the span resolves in the next call. Each batch hands its
        ready rows to ``_ready_sink`` of a :class:`_ReplayOutput` local to
        this replay, which runs every full model stage between batches;
        the parts are concatenated once, at the end.
        """
        n = len(cols["ts"])
        labels = replay_labels(labels, n)
        b = self.batch_size if batch_size is None else batch_size
        b = REGISTER_STEP_ROWS if b is None else int(b)
        if b < 1:
            raise ConfigError("batch_size", b, allowed=">= 1")
        out = _ReplayOutput(self)
        sink = self._ready_sink(out)
        acquire = self.state.acquire
        for start in range(0, n, b):
            stop = min(start + b, n)
            i = start
            while i < stop:
                batch = acquire(key_words[i:stop])
                j = i + batch.rows
                self._process_batch(batch, batch_columns(i, j), labels[i:j],
                                    i, sink)
                if out.rows >= MODEL_STAGE_ROWS:
                    out.run_stages()
                i = j
        return out.decisions()

    def _batch_columns(self, cols: dict[str, np.ndarray], trace: Trace,
                       start: int, stop: int) -> dict[str, np.ndarray]:
        """One batch's view of the replay columns (overridable for columns
        too large to materialize for the whole trace at once)."""
        return {name: col[start:stop] for name, col in cols.items()}

    def _ready_sink(self, out: _ReplayOutput):
        """Where a replay's batches hand their ready rows: the model stage."""
        return out.stage

    def _process_batch(self, batch: FlowBatch, cols: dict[str, np.ndarray],
                       labels: np.ndarray, base: int, sink) -> None:
        """The stateful half of a replay: acquire's grouping, the register
        lanes, the window gather and the write-back; ready rows go to
        ``sink``."""
        uniq, rank = batch.slots, batch.rank
        counts, first, occ, pos, prev_idx, last_idx = _group_structure(batch)
        columns = self.state.columns
        hist = self.state.banks["hist"]
        count = columns["count"][:, 0]
        cnt0 = count.take(uniq).astype(np.int64)
        count_i = cnt0.take(rank) + occ
        ipd = None
        if "prev_ts" in columns:
            # IPD bucket from the previous same-flow timestamp: in-batch,
            # else the stored ``prev_ts`` (``prev_idx`` -1 gathers a
            # discarded row); 0 for a flow's first packet.
            units, prev_ts = cols["units"], columns["prev_ts"][:, 0]
            prev_units = np.where(prev_idx >= 0, units.take(prev_idx),
                                  prev_ts.take(uniq).take(rank))
            ipd = np.where(count_i > 0, _IPD_BUCKET_OF_UNITS.take(
                (units - prev_units) & TS_MASK), 0)
        ready_rows = np.nonzero(count_i >= self.window - 1)[0]
        win, last_hist = _gather_windows(
            hist.take(uniq, axis=0), first, rank, pos, self._lanes(cols, ipd),
            self.window, ready_rows, last_idx)
        if len(ready_rows):
            sink(batch, ready_rows, win, labels, cols["ts"], base)

        hist[uniq] = last_hist
        if ipd is not None:
            prev_ts[uniq] = units.take(last_idx)
        count[uniq] = np.minimum(cnt0 + counts, 255)

    def _model_stage(self, staged: list[tuple]) -> DecisionBatch:
        """The stateless half of a replay: ``_decide`` and the decisions of
        the staged ready rows, in the order they were staged. Empties
        ``staged``, so its parts are freed once joined, before the model
        runs."""
        if len(staged) == 1:
            win, seq, labels, ts = staged[0]
        else:
            win, seq, labels, ts = map(np.concatenate, zip(*staged))
        staged.clear()
        preds = np.asarray(self._decide(win), dtype=np.int64)
        return DecisionBatch(seq, labels, preds, ts)

    @property
    def bits_per_flow(self) -> int:
        return self.state.layout.bits_per_flow

@dataclass
class WindowedClassifierRuntime(_BatchedReplayMixin):
    """Classify every packet once its flow has a full token window.

    ``model`` is anything exposing the integer decision interface
    ``predict(x_int) -> class ids`` — a :class:`CompiledModel` or a placed
    :class:`repro.dataplane.Pipeline`; the batched replay invokes it once
    per model stage (``MODEL_STAGE_ROWS`` ready rows, and at replay end),
    not once per batch. See the module docstring for the per-flow register
    layout (136 bits/flow at the default window of 8) and eviction behavior.
    ``decision_cache`` (a :class:`repro.serving.FlowDecisionCache` or
    :class:`repro.serving.TwoLevelDecisionCache`) makes repeating windows
    of already-classified flows skip the model; this is the only runtime
    that carries one.
    ``lookup_backend`` selects how a :class:`CompiledModel`'s fuzzy tables
    are answered — ``"index"`` (leaf grid / tree walk) or ``"tcam-pruned"``
    (the pruned prioritized-TCAM kernel); both are bit-identical.
    """

    model: CompiledModel
    feature_mode: str = "seq"          # "seq" (interleaved tokens) | "stats"
    window: int = 8
    capacity: int = 1_000_000
    batch_size: int | None = None
    decision_cache: object = None
    lookup_backend: str = "index"
    state: VectorFlowState = field(init=False)
    _feature_dtype: type = field(init=False, repr=False)

    required_columns = ("ts", "length")

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("window", self.window, allowed=">= 2")
        if self.feature_mode not in ("seq", "stats"):
            raise ConfigError("feature_mode", self.feature_mode,
                              allowed=("seq", "stats"))
        self.set_lookup_backend(self.lookup_backend)
        # Features are uint8 bucket values, and a compiled model (bare or
        # placed) widens keys itself where it packs or shifts them, so its
        # features stay uint8; any other model gets int64.
        self._feature_dtype = (np.uint8 if isinstance(
            self.model, (CompiledModel, Pipeline)) else np.int64)
        hist = self.window - 1
        layout = FlowStateLayout(fields=[
            RegisterField("prev_ts", 16),
            RegisterField("count", 8),
            RegisterField("len_hist", 8, count=hist, bank="hist"),
            RegisterField("ipd_hist", 8, count=hist, bank="hist"),
        ])
        self.state = VectorFlowState(layout, capacity=self.capacity)

    def set_lookup_backend(self, lookup_backend: str) -> None:
        """Switch the lookup backend (safe between serves: the backends are
        bit-identical). ``"tcam-pruned"`` compiles every fuzzy table's pruned
        form here, so the first serve measures lookups, not compilation."""
        _check_backend(lookup_backend)
        if lookup_backend != "index":
            if not isinstance(self.model, CompiledModel):
                raise ConfigError(
                    "lookup_backend", lookup_backend,
                    reason="requires a CompiledModel; a placed Pipeline "
                           "executes its own table layout")
            for layer in self.model.layers:
                for table in layer.tables:
                    if table.kind == "fuzzy":
                        table.tcam_segment(pruned=True)
        self.lookup_backend = lookup_backend

    def _model_predict(self, x: np.ndarray) -> np.ndarray:
        if self.lookup_backend == "index":
            return self.model.predict(x)
        return self.model.predict(x, lookup_backend=self.lookup_backend)

    def _features_batch(self, win: np.ndarray) -> np.ndarray:
        """Model inputs of ``(N, 2, W)`` (length, IPD) bucket windows:
        :func:`stats_from_buckets` or the interleaved tokens, per row, in
        the narrowest dtype the model takes (``_feature_dtype``)."""
        n, _, w = win.shape
        dtype = self._feature_dtype
        if self.feature_mode == "seq":
            return win.transpose(0, 2, 1).reshape(n, 2 * w).astype(dtype)
        take = min(6, w)
        feats = (np.empty if take == 6 else np.zeros)((n, 16), dtype=dtype)
        # Reduce over a leading axis: NumPy is slow along a short last one.
        by_position = np.ascontiguousarray(win.transpose(2, 0, 1))
        feats[:, 0:4:2] = by_position.max(axis=0)
        feats[:, 1:4:2] = by_position.min(axis=0)
        feats[:, 4:4 + take] = win[:, 0, :take]
        feats[:, 10:10 + take] = win[:, 1, :take]
        return feats

    def _cell_boxes(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lo, hi) boxes on which the decision is provably constant.

        The certificate an L2 insert carries (see
        :class:`repro.serving.TwoLevelDecisionCache`): the certified decision
        box of a :class:`CompiledModel` at the L2's quantization shift, else
        the degenerate point box — always sound.
        """
        if isinstance(self.model, CompiledModel):
            shift = self.decision_cache.l2.quantize_shift
            boxes = [certified_decision_box(self.model,
                                            feats[a:a + CERTIFICATE_ROWS],
                                            quantize_shift=shift)
                     for a in range(0, len(feats), CERTIFICATE_ROWS)]
            return tuple(np.concatenate(b) for b in zip(*boxes))
        feats = np.asarray(feats, dtype=np.int64)
        return feats.copy(), feats.copy()

    def _predict_ready(self, batch: FlowBatch, ready_rows: np.ndarray,
                       windows: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Predictions for the window-complete rows, through the cache.

        ``batch`` is the batch's flow resolution (its flow ids key the
        cache), ``ready_rows`` the batch indices of the window-complete
        packets, ``windows`` their ``(n_ready, 2W)`` packed window contents
        (each row, as bytes, is the cache's *window index*) and ``feats``
        their model inputs. The model runs on misses only —
        bit-identical to running it on every row, because the model's
        decision is a pure function of the window. The two-level protocol
        probes its L2 with ``feats`` too.
        """
        from repro.serving.cache import PENDING

        n_ready = len(ready_rows)
        cache = self.decision_cache
        flows = batch.flows
        keys = [flows[u] for u in batch.rank[ready_rows].tolist()]
        if getattr(cache, "two_level", False):
            return self._predict_ready_two_level(keys, windows, feats)
        preds = np.empty(n_ready, dtype=np.int64)
        row_bytes = windows.shape[1] * windows.dtype.itemsize
        packed = np.ascontiguousarray(windows).tobytes()
        # The cache is driven in ready-row order, replaying exactly the
        # get/put sequence of a one-packet step: a miss immediately
        # reserves its slot with a PENDING placeholder (the model's one
        # batched invocation fills the value afterwards), so in-batch window
        # repeats hit — or, when LRU eviction removed the placeholder within
        # this very flush, miss — precisely when one-packet steps' would.
        # Keeps hits + misses == lookups and the whole stat/eviction stream
        # bit-identical to per-packet replay, not just the decisions.
        miss_rows: dict[tuple, list[int]] = {}
        try:
            for r in range(n_ready):
                lo = r * row_bytes
                ck = (keys[r], packed[lo:lo + row_bytes])
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
                got = np.asarray(self._model_predict(feats[first]),
                                 dtype=np.int64)
        except BaseException:
            # A failed model invocation must not strand placeholders: a
            # stale PENDING would later be mistaken for an in-flush repeat.
            for ck in miss_rows:
                cache.discard_pending(ck)
            raise
        for k, (ck, rows) in enumerate(miss_rows.items()):
            preds[rows] = got[k]
            cache.fill(ck, int(got[k]))
        return preds

    def _predict_ready_two_level(self, keys: list, windows: np.ndarray,
                                 feats: np.ndarray) -> np.ndarray:
        """Batched replay of the two-level per-packet op sequence, 2 passes.

        Pass 1 walks the ready rows in order, issuing exactly the per-packet
        L1 probes and (for L1 misses) their L1 inserts — reserved with
        PENDING, since the decision may come from the L2 or the batch's one
        model call. A put's *value* never affects LRU recency or eviction
        choice, so the L1 state stream is bit-identical to per-packet
        replay. Pass 2 walks the L1-missing rows in the same order against
        the L2: verified hits resolve immediately (or join the pending
        entry's model group when the in-flush creator hasn't computed yet);
        double misses reserve a pending L2 entry and form a model group.
        One model invocation covers the group leaders; fills then resolve
        every reservation — again exactly the per-packet insert stream, so
        exact/approx/miss counts, eviction counts, and decisions all match
        per-packet replay bit for bit (regression-tested).
        """
        from repro.serving.cache import PENDING, _DEC, _GROUP

        cache = self.decision_cache
        n_ready = len(keys)
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
                ck = (keys[r], packed[lo_b:lo_b + row_bytes])
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
                feats = feats[l2_rows]
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
                            # is exactly what a gated one-packet step does.
                            cache.skip_l2_insert()
                        miss_groups.setdefault(cks[r], []).append(r)
                if miss_groups:
                    leaders = np.asarray(
                        [j_of[rows[0]] for rows in miss_groups.values()],
                        dtype=np.int64)
                    got = np.asarray(self._model_predict(feats[leaders]),
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

    def _replay_columns(self, cols) -> dict[str, np.ndarray]:
        # Decision ``ts`` is float64 (a one-part replay is not concatenated,
        # so nothing casts it later).
        ts = np.asarray(cols["ts"], dtype=np.float64)
        return {"ts": ts, "units": _ts_units_array(ts),
                "len_b": length_bucket_array(cols["length"]).astype(np.uint8)}

    def _lanes(self, cols: dict[str, np.ndarray],
               ipd: np.ndarray) -> np.ndarray:
        """The batch's (length, IPD) bucket lanes, ``(rows, 2)`` uint8."""
        vals = np.empty((*ipd.shape, 2), dtype=np.uint8)
        vals[:, 0] = cols["len_b"]
        vals[:, 1] = ipd
        return vals

    def _decide(self, win: np.ndarray) -> np.ndarray:
        return self._model_predict(self._features_batch(win))

    def _ready_sink(self, out: _ReplayOutput):
        """With a decision cache, ready rows are decided inside their batch
        (the cache must see them in packet order), not staged."""
        if self.decision_cache is None:
            return out.stage

        def decide_in_batch(batch, rows, win, labels, ts, base):
            # The cache key: the length window ++ the IPD window, one byte per bucket.
            preds = self._predict_ready(batch, rows, win.reshape(len(rows), -1),
                                        self._features_batch(win))
            out.append(DecisionBatch(rows + base, labels[rows], preds, ts[rows]))
        return decide_in_batch


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

    Batched replay extracts a batch's fuzzy indexes with one ``feature_fn``
    / tree evaluation; the model stage decides staged index windows with one
    SumReduce gather per window slot. ``feature_fn`` must therefore accept
    (N, raw_bytes) inputs and an optional per-row IPD-bucket array (the
    scalar oracle passes one row and an int). There is no decision cache:
    the second stage is eight gathers and an argmax, cheaper than a probe.
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
    batch_size: int | None = None
    state: VectorFlowState = field(init=False)

    required_columns = ("ts", "payload")

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("window", self.window, allowed=">= 2")
        if len(self.slot_values) != self.window:
            raise ConfigError(
                "slot_values", len(self.slot_values),
                allowed=f"{self.window} tables (one per window slot)")
        fields = [RegisterField("count", 8),
                  RegisterField("idx_hist", self.idx_bits,
                                count=self.window - 1, bank="hist")]
        if self.needs_ipd:
            fields.insert(0, RegisterField("prev_ts", 16))
        self.state = VectorFlowState(FlowStateLayout(fields=fields),
                                     capacity=self.capacity)

    def set_lookup_backend(self, lookup_backend: str) -> None:
        """Only ``"index"``: the extractor tree is served by its tree walk
        (the TCAM serving path is the windowed runtime's)."""
        if lookup_backend != "index":
            raise ConfigError("lookup_backend", lookup_backend,
                              allowed=("index",))

    def _decide(self, win: np.ndarray) -> np.ndarray:
        """Classes of ``(n, 1, window)`` fuzzy-index windows: per-slot
        SumReduce gathers + final argmax."""
        logits = np.zeros((len(win), self.n_classes), dtype=np.int64)
        for slot_pos in range(self.window):
            logits += self.slot_values[slot_pos][win[:, 0, slot_pos]]
        return np.argmax(logits, axis=1)

    def _replay_columns(self, cols) -> dict[str, np.ndarray]:
        step = {"ts": np.asarray(cols["ts"], dtype=np.float64)}
        if self.needs_ipd:
            step["units"] = _ts_units_array(cols["ts"])
        if "payload" in cols:           # columnar replay: shipped as a matrix
            step["payload"] = cols["payload"]
        return step

    def _batch_columns(self, cols: dict[str, np.ndarray], trace: Trace,
                       start: int, stop: int) -> dict[str, np.ndarray]:
        # Raw bytes are ~480 B/packet as float64: materialize per batch, not
        # for the whole trace.
        batch = super()._batch_columns(cols, trace, start, stop)
        batch["payload"] = trace.payload_matrix(self.raw_bytes, start, stop)
        return batch

    def _lanes(self, cols: dict[str, np.ndarray],
               ipd: np.ndarray | None) -> np.ndarray:
        """The batch's clamped fuzzy indexes, ``(rows, 1)`` in the
        ``idx_hist`` register's dtype."""
        feats = cols["payload"]
        if self.feature_fn is not None:
            feats = np.asarray(self.feature_fn(
                feats, None if ipd is None else ipd.astype(np.int64)))
        idx = np.asarray(self.extractor_tree.predict_index(feats),
                         dtype=np.int64)
        return np.minimum(idx, (1 << self.idx_bits) - 1).astype(
            self.state.banks["hist"].dtype)[:, None]
