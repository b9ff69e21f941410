"""Shared-memory ring buffers: the zero-copy IPC lane of the dataplane.

The parallel dispatcher used to pickle every shard payload and decision
stream through its worker pipes — a full serialize/copy/deserialize per
serve that made four workers *slower* than one. This module replaces the
payload lane with ``multiprocessing.shared_memory`` ring buffers of
preallocated columnar chunks, laid out per ``repro.dataplane.schema``:

- one **ingress ring** per worker: ``depth`` slots, each slot the wire
  columns of up to ``chunk_rows`` packets (``INGRESS_RING_ORDER`` order,
  one contiguous region per column, payload matrix last when configured);
- one **egress ring** per worker: ``depth`` slots of decision columns
  (``EGRESS_RING_ORDER``), slot *i* always answering ingress slot *i*.

The driver gathers shard rows straight into an ingress slot with
``np.take(..., out=view)``, the worker replays the slot **in place** and
writes its decisions into the matching egress slot, and only fixed-size
chunk descriptors — ``(slot, rows)`` and the matching acks — ever cross
the pipe. Nothing on the payload path is pickled.

Segment lifetime is strictly driver-owned: :class:`RingSegments` creates
(and alone unlinks) every segment, ``close()`` is idempotent and crash-safe,
and a ``weakref.finalize`` backstop unlinks on garbage collection so no
``/dev/shm`` entry outlives the dispatcher even on unclean exits. Workers
attach by name and immediately deregister from ``resource_tracker`` —
Python < 3.13 registers attached segments too, and a worker exiting would
otherwise unlink (or double-count) a segment the driver still owns.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.dataplane.schema import (
    EGRESS_RING_ORDER,
    INGRESS_RING_ORDER,
    decision_dtype,
    wire_dtype,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class RingSpec:
    """Geometry of one worker's ring pair (picklable, shared with workers).

    ``depth`` slots of ``chunk_rows`` packets each; ``payload_cols`` > 0
    appends a ``(chunk_rows, payload_cols)`` float64 payload matrix to
    every ingress slot. All byte offsets derive from the schema dtypes and
    the literal ``*_RING_ORDER`` layouts — driver and workers compute the
    same addresses from the same frozen spec, nothing is negotiated.
    """

    depth: int = 4
    chunk_rows: int = 256
    payload_cols: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("ring_depth", self.depth, allowed=">= 1")
        if self.chunk_rows < 1:
            raise ConfigError("ring_chunk", self.chunk_rows, allowed=">= 1")
        if self.payload_cols < 0:
            raise ConfigError("payload_cols", self.payload_cols,
                              allowed=">= 0")

    def _ingress_layout(self) -> list[tuple[str, np.dtype, int]]:
        """(column, dtype, per-row item count) — payload last, if present."""
        layout = [(name, wire_dtype(name), 1) for name in INGRESS_RING_ORDER]
        if self.payload_cols:
            layout.append(("payload", wire_dtype("payload"),
                           self.payload_cols))
        return layout

    def _egress_layout(self) -> list[tuple[str, np.dtype, int]]:
        return [(name, decision_dtype(name), 1) for name in EGRESS_RING_ORDER]

    @staticmethod
    def _region_bytes(layout, depth: int, chunk_rows: int) -> int:
        return sum(depth * chunk_rows * items * dt.itemsize
                   for _name, dt, items in layout)

    @property
    def ingress_bytes(self) -> int:
        """Total byte size of one worker's ingress segment."""
        return self._region_bytes(self._ingress_layout(), self.depth,
                                  self.chunk_rows)

    @property
    def egress_bytes(self) -> int:
        """Total byte size of one worker's egress segment."""
        return self._region_bytes(self._egress_layout(), self.depth,
                                  self.chunk_rows)

    def _check_slot(self, slot: int, rows: int) -> None:
        if not 0 <= slot < self.depth:
            raise IndexError(f"ring slot {slot} out of range "
                             f"(depth {self.depth})")
        if not 0 < rows <= self.chunk_rows:
            raise IndexError(f"chunk of {rows} rows does not fit a "
                             f"{self.chunk_rows}-row ring slot")

    def _slot_views(self, layout, buf, slot: int, rows: int) -> dict:
        """Column name -> ndarray view over one slot, straight on ``buf``."""
        views = {}
        offset = 0
        for name, dt, items in layout:
            slot_bytes = self.chunk_rows * items * dt.itemsize
            shape = (rows,) if items == 1 else (rows, items)
            views[name] = np.ndarray(shape, dtype=dt, buffer=buf,
                                     offset=offset + slot * slot_bytes)
            offset += self.depth * slot_bytes
        return views

    def ingress_views(self, buf, slot: int, rows: int) -> dict:
        """Wire-column views over ingress slot ``slot`` (first ``rows``)."""
        self._check_slot(slot, rows)
        return self._slot_views(self._ingress_layout(), buf, slot, rows)

    def egress_views(self, buf, slot: int, rows: int) -> dict:
        """Decision-column views over egress slot ``slot``."""
        self._check_slot(slot, rows)
        return self._slot_views(self._egress_layout(), buf, slot, rows)


def _unlink_segments(segments: list) -> None:
    """Close + unlink every segment, tolerating any prior cleanup."""
    for shm in segments:
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - exported view
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass                         # already unlinked (idempotent)
        except OSError:  # pragma: no cover - platform without unlink
            pass


class RingSegments:
    """The driver-owned shared-memory segments of one worker fleet.

    Creates ``2 * n_workers`` segments up front (ingress + egress per
    worker) and guarantees they are unlinked exactly once: on ``close()``,
    on a failed constructor, or — as a last resort — when the object is
    garbage collected (``weakref.finalize``). Workers receive segment
    *names* (picklable, spawn-safe) and attach read/write views; they never
    own lifetime.
    """

    def __init__(self, n_workers: int, spec: RingSpec):
        self.spec = spec
        self.ingress: list[shared_memory.SharedMemory] = []
        self.egress: list[shared_memory.SharedMemory] = []
        try:
            for _ in range(n_workers):
                self.ingress.append(shared_memory.SharedMemory(
                    create=True, size=spec.ingress_bytes))
                self.egress.append(shared_memory.SharedMemory(
                    create=True, size=spec.egress_bytes))
        except BaseException:
            # Never leak a partially created fleet of segments.
            _unlink_segments(self.ingress + self.egress)
            raise
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self.ingress + self.egress)

    def names(self, worker: int) -> tuple[str, str]:
        """(ingress name, egress name) to hand to one worker."""
        return self.ingress[worker].name, self.egress[worker].name

    @property
    def segment_names(self) -> list[str]:
        """Every segment name this fleet owns (leak-check hook)."""
        return [shm.name for shm in self.ingress + self.egress]

    def close(self) -> None:
        """Unlink every segment. Idempotent; safe after worker crashes."""
        self._finalizer()


def attach_ring(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach to a driver-owned segment, without ownership.

    ``SharedMemory(name=...)`` on Python < 3.13 registers the attachment
    with ``resource_tracker`` as if this process created it, so a spawned
    worker exiting would have its own tracker warn about "leaked" segments
    and unlink them out from under the driver. Deregister immediately —
    but only when this process owns a *fresh* tracker (spawn). A forked
    worker inherits the driver's tracker fd, where the name is the
    driver's own create-time registration: the attach's re-register is a
    set no-op there, and unregistering would strip the driver's entry so
    its later unlink raises ``KeyError`` noise inside the tracker process.
    Lifetime stays with :class:`RingSegments` either way.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    inherited = (tracker is not None
                 and getattr(tracker, "_fd", None) is not None)
    shm = shared_memory.SharedMemory(name=name)
    if not inherited:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except (AttributeError, KeyError, ValueError):  # pragma: no cover
            pass             # tracker variants without the registration
    return shm


def write_ingress_chunk(views: dict, sources: dict,
                        rows_idx: np.ndarray) -> None:
    """Gather ``rows_idx`` of every source column straight into one slot.

    ``views`` comes from :meth:`RingSpec.ingress_views`; ``sources`` maps
    the same column names to the full-trace arrays. One ``np.take`` per
    column writes the shard rows directly into the mapped segment — no
    intermediate shard arrays, no pickling.
    """
    for name, view in views.items():
        np.take(sources[name], rows_idx, axis=0, out=view)


def write_egress_chunk(views: dict, decisions) -> int:
    """Write a chunk's decision columns into one egress slot; returns count.

    ``decisions`` is the replica's :class:`~repro.dataplane.decisions.
    DecisionBatch` with chunk-local ``seq``; each column is one slice
    store into the mapped view. The stores cast to the slot dtypes, so the
    caller validates ``decisions`` against the decision schema first.
    """
    n = len(decisions)
    views["seq"][:n] = decisions.seq
    views["flow_label"][:n] = decisions.flow_label
    views["predicted"][:n] = decisions.predicted
    views["ts"][:n] = decisions.ts
    return n


def scatter_decision_chunk(merged: dict, valid: np.ndarray,
                           gseq: np.ndarray, views: dict, rows: int) -> None:
    """Scatter one egress slot into the position-aligned decision columns.

    ``gseq`` holds the global trace positions of the chunk's decisions
    (precomputed by the driver); every column is stored once at its final
    position, with the mapped egress slot as the source. The stores cast
    to ``merged``'s dtypes: an egress slot is schema-typed by construction,
    and the in-process merge validates a shard's decisions before calling
    this.
    """
    valid[gseq] = True
    merged["seq"][gseq] = gseq
    for name in ("flow_label", "predicted", "ts"):
        merged[name][gseq] = views[name][:rows]
