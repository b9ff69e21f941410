"""The decision stream: one columnar batch from the runtimes to the report.

The switch emits a decision as a few PHV fields, not as an object. The
serving path keeps that shape: every batched runtime, the dispatchers, the
shared-memory segments and ``ServingReport`` pass decisions as a
:class:`DecisionBatch` — four aligned columns (``seq``, ``flow_label``,
``predicted``, ``ts``) in the dtypes :data:`~repro.dataplane.schema.
DECISION_COLUMNS` declares. Per-decision :class:`PacketDecision` objects
exist only where someone reads one: iterating or indexing a batch builds
them on demand, and the scalar oracle
(:func:`repro.eval.differential.scalar_replay`) returns a list of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.schema import decision_dtype


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


def alloc_decision_columns(n: int) -> dict[str, np.ndarray]:
    """Uninitialised decision columns for ``n`` decisions, schema dtypes."""
    return {
        "seq": np.empty(n, dtype=decision_dtype("seq")),
        "flow_label": np.empty(n, dtype=decision_dtype("flow_label")),
        "predicted": np.empty(n, dtype=decision_dtype("predicted")),
        "ts": np.empty(n, dtype=decision_dtype("ts")),
    }


@dataclass(frozen=True, eq=False)
class DecisionBatch:
    """A run of decisions as four aligned columns.

    ``seq[i]`` is decision i's packet position in the replayed trace. The
    batch is a value: operations return new batches. It deliberately has
    no value equality; compare ``list(batch)`` (the materialised
    :class:`PacketDecision` s) or the columns.
    """

    seq: np.ndarray
    flow_label: np.ndarray
    predicted: np.ndarray
    ts: np.ndarray

    @classmethod
    def concat(cls, parts) -> "DecisionBatch":
        """One batch holding ``parts`` back to back, in order."""
        out = alloc_decision_columns(sum(len(p) for p in parts))
        seq, flow_label = out["seq"], out["flow_label"]
        predicted, ts = out["predicted"], out["ts"]
        a = 0
        for p in parts:
            b = a + len(p)
            seq[a:b] = p.seq
            flow_label[a:b] = p.flow_label
            predicted[a:b] = p.predicted
            ts[a:b] = p.ts
            a = b
        return cls(**out)

    @classmethod
    def from_decisions(cls, decisions) -> "DecisionBatch":
        """Columns of a sequence of :class:`PacketDecision` objects (or a
        batch, returned as is)."""
        if isinstance(decisions, DecisionBatch):
            return decisions
        n = len(decisions)
        return cls(*(np.fromiter((getattr(d, name) for d in decisions),
                                 dtype=decision_dtype(name), count=n)
                     for name in ("seq", "flow_label", "predicted", "ts")))

    def columns(self) -> dict[str, np.ndarray]:
        """The four columns by schema name (views, not copies)."""
        return {"seq": self.seq, "flow_label": self.flow_label,
                "predicted": self.predicted, "ts": self.ts}

    def take(self, idx: np.ndarray) -> "DecisionBatch":
        """The decisions at positions ``idx`` of this batch."""
        return DecisionBatch(self.seq[idx], self.flow_label[idx],
                             self.predicted[idx], self.ts[idx])

    def remap(self, positions: np.ndarray) -> "DecisionBatch":
        """Move ``seq`` from sub-trace to trace positions:
        ``positions[i]`` is the trace position of sub-trace packet i."""
        return DecisionBatch(np.asarray(positions)[self.seq],
                             self.flow_label, self.predicted, self.ts)

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self):
        return map(PacketDecision, self.flow_label.tolist(),
                   self.predicted.tolist(), self.ts.tolist(),
                   self.seq.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DecisionBatch(self.seq[i], self.flow_label[i],
                                 self.predicted[i], self.ts[i])
        return PacketDecision(int(self.flow_label[i]), int(self.predicted[i]),
                              float(self.ts[i]), int(self.seq[i]))
