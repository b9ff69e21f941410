"""How fast is the host right now? A fixed piece of work, timed.

The benchmark runs on a shared 2-vCPU VM whose neighbours slow everything
down by up to 2x for seconds or minutes at a time: over a 15-minute series
the plain median of ten-second windows of identical serves had an IQR of
13-21% of its median, far beyond any regression bound worth having. The same
windows, with every serve divided by the time this probe took right before
and right after it, had an IQR of 3-6% (hitters_base, hitters_l1l2,
mice_slots and mice_par2 alike).

So every timed measurement is bracketed by two probes, and reported as what
it would have been on a host that runs the probe in ``REFERENCE_S``: this
host, when its neighbours are quiet (see ``SERVE_SENSITIVITY`` for how a
probe reading becomes a serve's host factor). The probe never touches ``repro``; a
change to the program cannot move it. It mixes the kinds of work a serve is
made of, in roughly equal parts: interpreter arithmetic, small NumPy calls,
a recursive walk over a tree of Python objects that splits index arrays (the
shape of ``FuzzyTree.predict_index``), and a pass over an array larger than
the caches.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the probe takes between two serves on this host when nothing
# disturbs it (back to back it takes 0.0115 s; right after a serve, with the
# caches cold, 1.25x that). A constant: on another host the reported numbers
# are scaled by one factor, and comparisons still hold.
REFERENCE_S = 0.0144
# A serve has the larger working set and loses more to a busy neighbour than
# the probe does: over 180 runs taken in quiet and in bad hours, the per-run
# medians of measured pps fell as probe slowness ** 1.0 to 1.4, workload by
# workload. 1.25 narrowed the spread of five of the six workloads across those
# hours (9.7-14% to 4.3-9%) and widened burst_open's from 8.5% to 9.8%.
SERVE_SENSITIVITY = 1.25

_TREES = 16
_DEPTH = 6
_ROWS = 256
_FEATURES = 16


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "leaf")


def _build(rng, depth: int) -> _Node:
    node = _Node()
    if depth == 0:
        node.leaf = int(rng.integers(0, 64))
        return node
    node.leaf = -1
    node.feature = int(rng.integers(0, _FEATURES))
    node.threshold = int(rng.integers(500, 3500))
    node.left = _build(rng, depth - 1)
    node.right = _build(rng, depth - 1)
    return node


def _assign(node: _Node, rows, index, out) -> None:
    if node.leaf >= 0:
        out[index] = node.leaf
        return
    goes_left = rows[index, node.feature] <= node.threshold
    left, right = index[goes_left], index[~goes_left]
    if len(left):
        _assign(node.left, rows, left, out)
    if len(right):
        _assign(node.right, rows, right, out)


class HostProbe:
    """Calling it does the fixed work once and returns the probe's slowness:
    its seconds over ``REFERENCE_S`` (1.0 on the quiet reference host).
    :meth:`bracket` is the host factor for whatever ran since the last call."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._trees = [_build(rng, _DEPTH) for _ in range(_TREES)]
        self._rows = rng.integers(0, 4096, size=(_ROWS, _FEATURES))
        self._index = np.arange(_ROWS)
        self._small = np.arange(_ROWS * _FEATURES).reshape(_ROWS, _FEATURES)
        self._large = np.arange(1 << 21)          # 16 MiB, really resident
        self._last = 1.0

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        for _ in range(300):
            (self._small > 2048).sum(axis=1)
        out = np.empty(_ROWS, dtype=np.int64)
        for tree in self._trees:
            _assign(tree, self._rows, self._index, out)
        for _ in range(4):
            self._large.sum()
        self._last = (time.perf_counter() - start) / REFERENCE_S
        return self._last

    def bracket(self) -> float:
        """How much slower than on the reference host the work since the last
        call ran: the mean of that reading and a new one, taken now, to the
        power of ``SERVE_SENSITIVITY``."""
        before = self._last
        return ((before + self()) / 2.0) ** SERVE_SENSITIVITY
