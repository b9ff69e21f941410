"""The scalar oracle: a per-packet reference that shares no code with serving.

Pegasus decides with integer table lookups, a saturating SumReduce and an
argmax, so a per-packet reference needs only Python ints, lists and dicts.
:class:`ScalarOracle` replays a trace from a runtime's configuration and never
touches the runtime's registers. Its flow table is an insertion-ordered dict
(FIFO at ``capacity``); a compiled model is read from its arrays: a walk over
each fuzzy tree's ``feature`` / ``threshold`` / ``child``, exact tables at
``clip(x - exact_lo)``, sums saturated at the layer's format, a first-max
argmax. NumPy is used only to call a two-stage spec's ``feature_fn`` (user
code) on a ``(1, raw_bytes)`` row.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataplane.decisions import PacketDecision
from repro.net.packet import MAX_PACKET_LENGTH
from repro.net.traces import TS_UNIT_SECONDS

TS_MASK = 0xFFFF  # the 16-bit prev_ts register, in TS_UNIT_SECONDS units
COUNT_MAX = 255  # the 8-bit saturating count register
STAT_HEAD = 6  # leading window positions the statistical view lists


def length_bucket(length: int) -> int:
    """A packet length as an 8-bit bucket, linear over the MTU."""
    return min(length * 255 // MAX_PACKET_LENGTH, 255)


def ipd_bucket(delta_units: int) -> int:
    """A 16-bit timestamp difference as an 8-bit bucket, 8 per doubling of us."""
    micros = delta_units * TS_UNIT_SECONDS * 1e6
    return min(int(math.log2(micros + 1.0) * 16.0 / 2.0), 255)


def _tree(tree) -> tuple:
    """A fuzzy tree's node arrays as Python lists, and its internal-node count."""
    feature = tree.feature.tolist()
    return feature, tree.threshold.tolist(), tree.child.tolist(), len(feature) // 2


def _leaf(tree: tuple, x: list) -> int:
    """The leaf one row reaches: left while ``x <= t``, so NaN goes right."""
    feature, threshold, child, n_internal = tree
    node = 0
    while node < n_internal:
        node = child[2 * node + (not x[feature[node]] <= threshold[node])]
    return node - n_internal


class _Model:
    """A compiled model's integer forward pass and argmax, read from its arrays."""

    def __init__(self, model):
        model = getattr(model, "model", model)  # a placed Pipeline holds one
        self.layers = [
            (layer.sum_reduce, layer.out_format, [self._table(t) for t in layer.tables])
            for layer in model.layers
        ]

    @staticmethod
    def _table(table) -> tuple:
        tree = None if table.kind == "exact" else _tree(table.tree)
        return (*table.segment, table.exact_lo, table.values_int.tolist(), tree)

    def forward(self, x: list) -> list:
        """The last layer's integer outputs for one input row."""
        for sum_reduce, fmt, tables in self.layers:
            rows = []
            for start, stop, exact_lo, values, tree in tables:
                if tree is None:
                    rows.append(values[min(max(x[start] - exact_lo, 0), len(values) - 1)])
                else:
                    rows.append(values[_leaf(tree, x[start:stop])])
            if sum_reduce:
                x = [min(max(sum(col), fmt.int_min), fmt.int_max) for col in zip(*rows)]
            else:
                x = [v for row in rows for v in row]
        return x

    def decide(self, x: list) -> int:
        scores = self.forward(x)
        return scores.index(max(scores))


class FlowRecord:
    """One flow's registers: ``count``, ``prev_ts`` and per history lane a
    zero-filled list of its last ``window - 1`` values, oldest first."""

    __slots__ = ("count", "prev_ts", "hist")

    def __init__(self, lanes: int, depth: int):
        self.count, self.prev_ts = 0, 0
        self.hist = [[0] * depth for _ in range(lanes)]


class ScalarOracle:
    """Per-packet replay of one runtime kind; state carries across calls.

    ``flows`` maps each live canonical 5-tuple to its :class:`FlowRecord` in
    FIFO order, ``evictions`` counts the flows the table dropped and
    ``lanes`` names the history registers a record's ``hist`` mirrors.
    """

    lanes: tuple[str, ...] = ()

    def __init__(self, capacity: int, window: int):
        self.capacity, self.window = capacity, window
        self.flows: dict = {}
        self.evictions = 0

    @staticmethod
    def of(runtime) -> ScalarOracle:
        """A cold oracle with ``runtime``'s configuration (not its state)."""
        if hasattr(runtime, "extractor_tree"):
            return _TwoStageOracle(runtime)
        return _WindowedOracle(runtime)

    def replay(self, trace, labels, positions=None) -> list[PacketDecision]:
        """One :class:`PacketDecision` per decided packet of ``trace``, with
        its label and timestamp; ``seq`` is its position in ``trace``, or
        ``positions[i]`` (a subsequence replayed at its global positions)."""
        seq = range(len(trace)) if positions is None else positions
        decisions = []
        for packet, label, pos in zip(trace.packets, labels, seq):
            pred = self.decide(packet)
            if pred is not None:
                decisions.append(PacketDecision(int(label), pred, packet.ts, int(pos)))
        return decisions

    def decide(self, packet) -> int | None:
        """Feed one packet; its class once its flow has a full window."""
        key = packet.key.canonical()
        flow = self.flows.get(key)
        if flow is None:
            if len(self.flows) == self.capacity:
                del self.flows[next(iter(self.flows))]
                self.evictions += 1
            flow = self.flows[key] = FlowRecord(len(self.lanes), self.window - 1)
        units = int(packet.ts / TS_UNIT_SECONDS) & TS_MASK
        ipd = ipd_bucket((units - flow.prev_ts) & TS_MASK) if flow.count else 0
        values = self._lane_values(packet, ipd)
        pred = None
        if flow.count >= self.window - 1:
            pred = self._decide([h + [v] for h, v in zip(flow.hist, values)])
        for h, v in zip(flow.hist, values):
            del h[0]
            h.append(v)
        flow.prev_ts = units
        flow.count = min(flow.count + 1, COUNT_MAX)
        return pred


class _WindowedOracle(ScalarOracle):
    lanes = ("len_hist", "ipd_hist")

    def __init__(self, runtime):
        super().__init__(runtime.capacity, runtime.window)
        self.model = _Model(runtime.model)
        self.stats = runtime.feature_mode == "stats"

    def _lane_values(self, packet, ipd: int) -> tuple[int, int]:
        return length_bucket(packet.length), ipd

    def _decide(self, windows: list) -> int:
        lens, ipds = windows
        if not self.stats:
            return self.model.decide([v for pair in zip(lens, ipds) for v in pair])
        head = [0] * STAT_HEAD
        x = [max(lens), min(lens), max(ipds), min(ipds)]
        return self.model.decide(x + (lens + head)[:STAT_HEAD] + (ipds + head)[:STAT_HEAD])


class _TwoStageOracle(ScalarOracle):
    lanes = ("idx_hist",)

    def __init__(self, runtime):
        super().__init__(runtime.capacity, runtime.window)
        self.tree = _tree(runtime.extractor_tree)
        self.slot_values = [v.tolist() for v in runtime.slot_values]
        self.max_index = (1 << runtime.idx_bits) - 1
        self.raw_bytes, self.feature_fn = runtime.raw_bytes, runtime.feature_fn
        self.needs_ipd = runtime.needs_ipd

    def _lane_values(self, packet, ipd: int) -> tuple[int]:
        n = self.raw_bytes
        row = (packet.payload[:n].tolist() + [0] * n)[:n]
        if self.feature_fn is not None:
            ipd = ipd if self.needs_ipd else None
            row = np.asarray(self.feature_fn(np.array([row], dtype=np.float64), ipd))[0]
            row = row.tolist()
        return (min(_leaf(self.tree, row), self.max_index),)

    def _decide(self, windows: list) -> int:
        rows = [table[i] for table, i in zip(self.slot_values, windows[0])]
        logits = [sum(col) for col in zip(*rows)]
        return logits.index(max(logits))
