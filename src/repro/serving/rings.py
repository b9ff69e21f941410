"""Shared-memory segments: the zero-copy IPC lane of the dataplane.

The parallel dispatcher used to pickle every shard payload and decision
stream through its worker pipes — a full serialize/copy/deserialize per
serve that made four workers *slower* than one. This module replaces the
payload lane with two ``multiprocessing.shared_memory`` segments for the
whole fleet, laid out per ``repro.dataplane.schema``:

- the **ingress segment** holds the wire columns of every packet of a
  serve (``INGRESS_RING_ORDER``, payload matrix last when configured);
- the **egress segment** holds the decision columns (``EGRESS_RING_ORDER``).

Each shard owns one contiguous row range ``[offset, offset + rows)`` in
both. Its block starts at byte ``offset * row_bytes`` and holds the shard's
columns back to back, so a range's views need only ``(offset, rows)``.
The driver gathers a shard straight into its ingress block with
``np.take(..., out=view)``, the worker replays the block **in place** and
writes its decisions to the front of its egress block, and only a
``(names, offset, rows)`` descriptor and one reply per serve cross the
pipe. Nothing on the payload path is pickled.

Segment lifetime is strictly driver-owned: :class:`RingSegments` creates
(and alone unlinks) both segments, ``close()`` is idempotent and
crash-safe, and a ``weakref.finalize`` backstop unlinks on garbage
collection so no ``/dev/shm`` entry outlives the dispatcher even on
unclean exits. Workers attach by name, and a worker with a
``resource_tracker`` of its own deregisters at once — Python < 3.13
registers attached segments too, and its tracker would otherwise unlink
(or double-count) a segment the driver still owns when the worker exits.
"""

from __future__ import annotations

import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.dataplane.schema import (
    EGRESS_RING_ORDER,
    INGRESS_RING_ORDER,
    decision_dtype,
    wire_dtype,
)


def ingress_layout(payload_cols: int = 0) -> list[tuple[str, np.dtype, int]]:
    """(column, dtype, per-row item count) of an ingress block, payload last."""
    layout = [(name, wire_dtype(name), 1) for name in INGRESS_RING_ORDER]
    if payload_cols:
        layout.append(("payload", wire_dtype("payload"), payload_cols))
    return layout


EGRESS_LAYOUT = tuple((name, decision_dtype(name), 1) for name in EGRESS_RING_ORDER)


def row_bytes(layout) -> int:
    """Bytes one row takes over every column of ``layout``."""
    return sum(items * dt.itemsize for _name, dt, items in layout)


def block_views(layout, buf, offset: int, rows: int) -> dict:
    """Column name -> ndarray view over the block of rows ``[offset,
    offset + rows)``, straight on ``buf``. A range past the end of the
    segment raises ``ValueError``.

    ``np.frombuffer`` holds a buffer export for as long as a view lives, so
    closing the segment under a live view raises ``BufferError`` and
    leaves the memory mapped. ``np.ndarray(buffer=...)`` holds none: the
    segment would unmap under the view, and reading it would segfault.
    """
    views = {}
    pos = offset * row_bytes(layout)
    for name, dt, items in layout:
        view = np.frombuffer(buf, dtype=dt, count=rows * items, offset=pos)
        views[name] = view if items == 1 else view.reshape(rows, items)
        pos += rows * items * dt.itemsize
    return views


# Segments whose close() met a live view (a failed serve's traceback can
# hold one): held so the SharedMemory object is not collected under the view
# (its __del__ would retry close() and print the BufferError), and closed by
# the first later _unlink_segments call that finds the view gone.
_HELD: list = []


def _closed(shm) -> bool:
    try:
        shm.close()
    except BufferError:
        return False
    except OSError:  # pragma: no cover - already closed
        pass
    return True


def _unlink_segments(segments: list) -> None:
    """Close + unlink every segment, tolerating any prior cleanup."""
    _HELD[:] = [shm for shm in _HELD if not _closed(shm)]
    for shm in segments:
        if not _closed(shm):
            _HELD.append(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked (idempotent)
        except OSError:  # pragma: no cover - platform without unlink
            pass


class RingSegments:
    """The driver-owned ingress and egress segments of one worker fleet.

    Both hold ``rows`` packets; ``payload_cols`` > 0 adds a float64 payload
    matrix to every ingress row. Both segments are unlinked exactly once:
    on ``close()``, on a failed constructor, or — as a last resort — when
    the object is garbage collected (``weakref.finalize``). Workers receive
    segment *names* (picklable, spawn-safe) and attach read/write views;
    they never own lifetime.
    """

    def __init__(self, rows: int, payload_cols: int = 0):
        self.rows = rows
        self.layout = ingress_layout(payload_cols)
        made = []
        try:
            # A segment cannot be empty: an empty serve still gets one row.
            for layout in (self.layout, EGRESS_LAYOUT):
                size = max(rows, 1) * row_bytes(layout)
                made.append(shared_memory.SharedMemory(create=True, size=size))
        except BaseException:
            # Never leak a partially created pair of segments.
            _unlink_segments(made)
            raise
        self.ingress, self.egress = made
        self._finalizer = weakref.finalize(self, _unlink_segments, made)

    @property
    def names(self) -> tuple[str, str]:
        """(ingress name, egress name) to hand to the workers."""
        return self.ingress.name, self.egress.name

    def ingress_views(self, offset: int, rows: int) -> dict:
        """Wire-column views over one shard's ingress block."""
        return block_views(self.layout, self.ingress.buf, offset, rows)

    def egress_views(self, offset: int, rows: int) -> dict:
        """Decision-column views over one shard's egress block."""
        return block_views(EGRESS_LAYOUT, self.egress.buf, offset, rows)

    def close(self) -> None:
        """Unlink both segments. Idempotent; safe after worker crashes."""
        self._finalizer()


def tracker_inherited() -> bool:
    """Whether this process shares its parent's ``resource_tracker``: a
    forked child of a process that had started one. Read it before the
    process's first attach, which otherwise starts a tracker of its own."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return tracker is not None and getattr(tracker, "_fd", None) is not None


def attach_ring(name: str, inherited: bool = True) -> shared_memory.SharedMemory:
    """Attach to a driver-owned segment, without ownership.

    ``SharedMemory(name=...)`` on Python < 3.13 registers the attachment
    with ``resource_tracker`` as if this process created it. A worker
    forked before the driver's tracker started (the first serve creates the
    segments, after the fork) gets a tracker of its own on its first
    attach: there ``inherited`` is false (:func:`tracker_inherited`), and
    the worker must deregister at once, or its tracker warns about
    "leaked" segments when the worker exits and unlinks them out from
    under the driver. Where the tracker is the driver's (the driver
    itself, a worker forked after its tracker started, a spawned worker,
    which is handed the driver's tracker), the name is the driver's own
    create-time registration: the attach's re-register is a set no-op there, and
    unregistering would strip the driver's entry so its later unlink
    raises ``KeyError`` noise inside the tracker process. Lifetime stays
    with :class:`RingSegments` either way.
    """
    shm = shared_memory.SharedMemory(name=name)
    if not inherited:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except (AttributeError, KeyError, ValueError):  # pragma: no cover
            pass  # tracker variants without the registration
    return shm


def write_ingress_chunk(views: dict, sources: dict, rows_idx: np.ndarray) -> None:
    """Gather ``rows_idx`` of every source column straight into one block.

    ``views`` comes from :meth:`RingSegments.ingress_views`; ``sources``
    maps the same column names to the full-trace arrays. One ``np.take``
    per column writes the shard rows directly into the mapped segment — no
    intermediate shard arrays, no pickling.
    """
    for name, view in views.items():
        np.take(sources[name], rows_idx, axis=0, out=view)


def write_egress_chunk(views: dict, decisions) -> int:
    """Write a shard's decision columns into its egress block; returns count.

    ``decisions`` is the replica's :class:`~repro.dataplane.decisions.
    DecisionBatch` with shard-local ``seq``; each column is one slice store
    into the mapped view. The stores cast to the block dtypes, so the
    caller validates ``decisions`` against the decision schema first.
    """
    n = len(decisions)
    views["seq"][:n] = decisions.seq
    views["flow_label"][:n] = decisions.flow_label
    views["predicted"][:n] = decisions.predicted
    views["ts"][:n] = decisions.ts
    return n


def scatter_decision_chunk(
    merged: dict, valid: np.ndarray, gseq: np.ndarray, views: dict, rows: int
) -> None:
    """Scatter one shard's decisions into the position-aligned columns.

    ``gseq`` holds the global trace positions of the shard's decisions
    (precomputed by the driver); every column is stored once at its final
    position, with the mapped egress block as the source. Only the first
    ``rows`` entries are read: the rest of a block is stale. The stores
    cast to ``merged``'s dtypes: an egress block is schema-typed by
    construction, and the in-process merge validates a shard's decisions
    before calling this.
    """
    valid[gseq] = True
    merged["seq"][gseq] = gseq
    for name in ("flow_label", "predicted", "ts"):
        merged[name][gseq] = views[name][:rows]
