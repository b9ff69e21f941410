"""Stateful per-flow registers.

Programmable switches keep per-flow features in stateful SRAM register
arrays; the bits consumed per flow bound the number of concurrent flows
(paper §7.3 / Figure 7). A :class:`FlowStateLayout` declares the fields one
model needs per flow (e.g. CNN-L: a 16-bit previous-packet timestamp plus a
4-bit fuzzy index for each of 7 stored packets = 44 bits) and accounts for
SRAM; :class:`VectorFlowState` stores those fields for up to ``capacity``
flows, each in the narrowest unsigned dtype that holds its width, all on one
demand-zero anonymous mapping.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import PipelineError
from repro.net.traces import flow_ids


@dataclass(frozen=True)
class RegisterField:
    """One named per-flow field of ``bits`` width, possibly an array.

    Fields that name the same ``bank`` (all of one ``bits`` and ``count``)
    are stored as one array in :class:`VectorFlowState`, so a batch gathers
    and scatters them together; the SRAM accounting is per field either way.
    """

    name: str
    bits: int
    count: int = 1
    bank: str | None = None

    @property
    def total_bits(self) -> int:
        return self.bits * self.count


@dataclass
class FlowStateLayout:
    """The per-flow record a model keeps on the switch."""

    fields: list[RegisterField]

    @property
    def bits_per_flow(self) -> int:
        return sum(f.total_bits for f in self.fields)

    def sram_bits(self, n_flows: int) -> int:
        return self.bits_per_flow * n_flows

    def sram_fraction(self, n_flows: int, total_sram_bits: int) -> float:
        return self.sram_bits(n_flows) / total_sram_bits


def register_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned NumPy dtype that holds a ``bits``-wide register."""
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    if bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


class FlowBatch(NamedTuple):
    """How one batch's packets map onto flow slots (:meth:`VectorFlowState.acquire`).

    Covers the batch's first ``rows`` packets (the batch is cut there).
    ``slots`` holds the register slot of each distinct flow, in order of
    first appearance, ``flows`` the same flows' ids (the decision cache keys
    flows by them), and ``rank[i]`` the position of packet ``i``'s flow in
    both — the per-flow grouping the batched runtimes gather state with.
    """

    rows: int
    slots: np.ndarray
    rank: np.ndarray
    flows: list


def _demand_zero_bytes(nbytes: int) -> np.ndarray:
    """``nbytes`` of zeroed uint8 on one private anonymous mapping.

    The kernel hands out its pages zeroed on first touch, so building the
    registers costs no memset and untouched slots no resident memory. Huge
    pages are refused on this mapping only: one touched byte would otherwise
    fault in (and zero) 2 MiB.
    """
    buf = mmap.mmap(-1, max(nbytes, 1),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.uint8, count=nbytes)


class VectorFlowState:
    """Columnar per-flow register storage for the batched runtimes.

    Each :class:`RegisterField` becomes one 2-D NumPy array of shape
    ``(capacity, field.count)`` in the narrowest unsigned dtype that holds
    the field width, so a whole batch gathers/scatters its per-flow state
    with fancy indexing. The ``k`` fields of one bank share one
    ``(capacity, k, count)`` array, ``banks[bank]``; their ``columns`` are
    views of it. All of them are views of one demand-zero mapping of
    exactly their bytes (:func:`_demand_zero_bytes`), so a new state costs
    no memset and touches only the pages its flows write. Flows map to
    *slots* (row indices) through an
    exact-match table keyed by the packed canonical 5-tuple
    (:func:`repro.net.traces.flow_ids`); it holds one entry per live flow
    plus one owner reference per slot up to the slot high-water mark, so its
    memory grows with the flows actually seen, never with ``capacity``.

    Eviction model: FIFO at ``capacity``, kept as an allocation counter —
    allocation *k* takes slot ``k % capacity`` and, once ``k >= capacity``,
    evicts that slot's owner (always the oldest live flow), zeroes its
    register rows, and counts it in ``evictions``. A re-arriving evicted
    flow therefore restarts its window from scratch: the state loss the
    Figure-7 capacity ablation measures.
    """

    def __init__(self, layout: FlowStateLayout, capacity: int = 1_000_000):
        if capacity < 1:
            raise PipelineError("VectorFlowState capacity must be >= 1")
        self.layout = layout
        self.capacity = capacity
        self.evictions = 0
        self._slot_of: dict[bytes, int] = {}
        self._owner: list[bytes] = []      # slot -> flow id, to the high-water mark
        self._allocations = 0
        self.columns: dict[str, np.ndarray] = {}
        self.banks: dict[str, np.ndarray] = {}
        banked: dict[str, list[RegisterField]] = {}
        for f in layout.fields:
            if f.bank is not None:
                banked.setdefault(f.bank, []).append(f)
        # One array per unbanked field, then one per bank: (shape, dtype).
        specs = [((capacity, f.count), register_dtype(f.bits))
                 for f in layout.fields if f.bank is None]
        for bank, members in banked.items():
            shapes = {(f.bits, f.count) for f in members}
            if len(shapes) > 1:
                raise PipelineError(
                    f"register bank {bank!r} mixes field shapes {sorted(shapes)}")
            bits, count = shapes.pop()
            specs.append(((capacity, len(members), count), register_dtype(bits)))
        # Widest dtype first: every offset is then a multiple of each later
        # itemsize (all powers of two), so the views need no padding.
        order = sorted(range(len(specs)), key=lambda i: -specs[i][1].itemsize)
        sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in specs]
        raw = _demand_zero_bytes(sum(sizes))
        self._arrays: list[np.ndarray] = [None] * len(specs)
        offset = 0
        for i in order:
            shape, dtype = specs[i]
            self._arrays[i] = raw[offset:offset + sizes[i]].view(dtype).reshape(shape)
            offset += sizes[i]
        arrays = iter(self._arrays)
        for f in layout.fields:
            if f.bank is None:
                self.columns[f.name] = next(arrays)
        for bank, members in banked.items():
            self.banks[bank] = next(arrays)
            for i, f in enumerate(members):
                self.columns[f.name] = self.banks[bank][:, i, :]

    def __len__(self) -> int:
        return len(self._slot_of)

    def acquire(self, words: np.ndarray) -> FlowBatch:
        """Resolve the flow slots of a batch of packed keys, ``(n, 2)`` uint64.

        Exactly the per-packet FIFO replay, done once per batch: flows
        already resident are looked up in one C-level pass; new flows are
        allocated in the order they first appear, each evicting the oldest
        live flow once the table is full. A resident flow whose slot an
        earlier packet of the batch evicted is new again when it shows up.
        The batch is cut before the first allocation whose victim slot the
        batch already uses (its pending state must be written back first):
        the result covers only the packets before the cut, and the caller
        resolves the rest with the next call. At least one packet is always
        resolved.
        """
        ids = flow_ids(words)
        flows = list(dict.fromkeys(ids))
        slots = list(map(self._slot_of.get, flows))
        rows = len(ids)
        if None in slots:
            resolved = self._allocate(flows, slots)
            if resolved < len(flows):
                rows = ids.index(flows[resolved])
                del ids[rows:], flows[resolved:], slots[resolved:]
        index = dict(zip(flows, range(len(flows))))
        return FlowBatch(rows, np.array(slots, dtype=np.int64),
                         np.fromiter(map(index.__getitem__, ids),
                                     dtype=np.int64, count=rows), flows)

    def _allocate(self, flows: list, slots: list) -> int:
        """Fill the ``None`` entries of ``slots`` in order (FIFO allocation);
        returns how many leading flows got a slot before the batch cut."""
        first = slots.index(None)
        used = set(slots[:first])
        slot_of, owner, capacity = self._slot_of, self._owner, self.capacity
        k = self._allocations
        evicted: list[int] = []
        resolved = len(flows)
        for j in range(first, len(flows)):
            flow = flows[j]
            slot = slot_of.get(flow)       # None again if evicted just now
            if slot is None:
                slot = k % capacity
                if k < capacity:
                    owner.append(flow)
                elif slot in used:
                    resolved = j
                    break
                else:
                    del slot_of[owner[slot]]
                    owner[slot] = flow
                    evicted.append(slot)
                slot_of[flow] = slot
                k += 1
            slots[j] = slot
            used.add(slot)
        self._allocations = k
        if evicted:
            self.evictions += len(evicted)
            for array in self._arrays:
                array[evicted] = 0
        return resolved
