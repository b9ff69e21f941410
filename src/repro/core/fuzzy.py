"""Fuzzy matching: the greedy min-SSE clustering tree of Pegasus §4.2.

Instead of enumerating every possible input of a segment, Pegasus groups the
training distribution of that segment into clusters. A binary tree of
(feature, threshold) comparisons maps an input vector to a leaf — its *fuzzy
index* — whose centroid stands in for the exact input when results are
precomputed. The tree is grown greedily: at each step the leaf whose best
axis-aligned split yields the largest reduction in total within-cluster SSE
is split, exactly the procedure of the paper's Figure 3.

A fitted tree is three flat arrays and an integer, and nothing else
(ARCHITECTURE.md, "Fuzzy index"): ``feature``, ``threshold`` and ``child``
over all ``2 * n_leaves - 1`` nodes, plus ``depth``. Internal nodes come first, parents before
children, the root is node 0; leaf *i* is node ``n_internal + i`` and loops
to itself (``threshold = +inf``, both children itself), so a batch reaches
its leaves in exactly ``depth`` rounds of one vectorized comparison —
:func:`traverse` — whatever the shape of the tree. A tree keeps the walk's
doubled node arrays (:func:`walk_arrays`) beside its leaf boxes, derived
from the three arrays on construction and on :meth:`FuzzyTree.set_thresholds`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ShapeError
from repro.core.crc import range_to_prefixes


# One feature block's prefix sums stay within this many float64 cells.
_BLOCK_CELLS = 1 << 20


def _best_split(x: np.ndarray) -> tuple[float, int, float] | None:
    """Best (sse_reduction, feature, threshold) for one cluster, or None.

    One pass scores every feature: one column-wise stable argsort, then
    prefix sums of the rows and of their squared norms in each feature's
    order give the SSE on both sides of every candidate cut, in blocks of
    features whose prefix sums stay within ``_BLOCK_CELLS`` cells. A cut
    after sorted position i needs ``v[i] < v[i + 1]``. The first largest
    gain wins, in (feature, cut) order; a gain of at most 1e-12 is no split.
    """
    n, d = x.shape
    if n < 2:
        return None
    order = np.argsort(x, axis=0, kind="stable")
    vs = x[order, np.arange(d)].T                               # (d, n)
    valid = vs[:, :-1] < vs[:, 1:]
    sq = (x ** 2).sum(axis=1)
    total_sse = float(sq.sum() - (x.sum(axis=0) ** 2).sum() / n)
    best = (1e-12, -1, 0)                       # a split must gain more
    step = max(1, _BLOCK_CELLS // (n * d))
    for lo in range(0, d, step):
        feat, cut = np.nonzero(valid[lo:lo + step])
        if not len(cut):
            continue
        block = order[:, lo:lo + step].T
        csum = x[block]                                         # (b, n, d)
        np.cumsum(csum, axis=1, out=csum)                       # in place: one copy
        csq = np.cumsum(sq[block], axis=1)
        left_sum, left_sq = csum[feat, cut], csq[feat, cut]
        right_sum = csum[feat, -1] - left_sum
        n_left = cut + 1
        sse_left = left_sq - np.square(left_sum, out=left_sum).sum(axis=1) / n_left
        sse_right = ((csq[feat, -1] - left_sq)
                     - np.square(right_sum, out=right_sum).sum(axis=1) / (n - n_left))
        reduction = total_sse - (sse_left + sse_right)
        k = int(np.argmax(reduction))
        if reduction[k] > best[0]:
            best = (float(reduction[k]), lo + int(feat[k]), int(cut[k]))
    gain, f, k = best
    if f < 0:
        return None
    # Integer-friendly threshold: midpoint floored, satisfied as "<= t".
    threshold = float(np.floor((vs[f, k] + vs[f, k + 1]) / 2.0))
    return gain, f, max(threshold, float(vs[f, k]))


Split = tuple[float, int, float]      # (gain, feature, threshold)


def key_domain(key_bits: int, signed: bool) -> tuple[int, int]:
    """Inclusive integer range of a ``key_bits``-wide (two's-complement) key."""
    lo = -(1 << (key_bits - 1)) if signed else 0
    return lo, lo + (1 << key_bits) - 1


def grow_tree(x: np.ndarray, max_leaves: int, min_rows: int,
              best_split: Callable[[np.ndarray], Split | None],
              ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Best-first growth: split the leaf with the largest gain until
    ``max_leaves`` (or no leaf of ``min_rows`` rows has a helpful split).

    ``best_split(rows)`` scores one leaf's member rows; a leaf of fewer than
    ``min_rows`` rows is never scored. The frontier is a heap keyed
    ``(-gain, -slot)``, so among equal gains the highest slot splits first.
    A slot is re-scored only after its entry is popped, so it holds at most
    one entry and none goes stale. Returns the per-leaf member rows and the
    ``(feature, threshold, child)`` node arrays.
    """
    members: list[np.ndarray] = [np.arange(len(x))]
    frontier: list[tuple[float, int, int, float]] = []

    def score(slot: int) -> None:
        rows = members[slot]
        split = best_split(rows) if len(rows) >= min_rows else None
        if split is not None:
            gain, f, t = split
            heapq.heappush(frontier, (-gain, -slot, f, t))

    score(0)
    feature: list[int] = []
    threshold: list[float] = []
    # Two entries per internal node; a leaf is held as ~slot until the node
    # count is known. ``points_at`` finds the entry to re-point when a leaf
    # splits later.
    child: list[int] = []
    points_at: dict[int, int] = {}

    while len(members) < max_leaves and frontier:
        _, neg_slot, f, t = heapq.heappop(frontier)
        leaf = -neg_slot
        rows = members[leaf]
        mask = x[rows, f] <= t
        left_rows, right_rows = rows[mask], rows[~mask]
        if len(left_rows) == 0 or len(right_rows) == 0:
            continue
        # Left child reuses the slot; right child gets a fresh slot.
        right_slot = len(members)
        members[leaf] = left_rows
        members.append(right_rows)
        score(leaf)
        score(right_slot)
        if leaf in points_at:
            child[points_at[leaf]] = len(feature)
        feature.append(f)
        threshold.append(t)
        points_at[leaf] = len(child)
        points_at[right_slot] = len(child) + 1
        child += [~leaf, ~right_slot]

    n_internal, n_leaves = len(feature), len(members)
    links = np.asarray(child, dtype=np.int64)
    leaves = np.arange(n_internal, n_internal + n_leaves)
    return (members,
            np.concatenate([np.asarray(feature, dtype=np.int64),
                            np.zeros(n_leaves, dtype=np.int64)]),
            np.concatenate([np.asarray(threshold, dtype=np.float64),
                            np.full(n_leaves, np.inf)]),
            np.concatenate([np.where(links < 0, n_internal + ~links, links),
                            np.repeat(leaves, 2)]))


def tree_depth(child: np.ndarray) -> int:
    """Comparisons on the longest root-to-leaf path."""
    level = np.zeros(len(child) // 2, dtype=np.int64)
    for k in range(len(level) // 2):            # internal nodes, parents first
        level[child[2 * k:2 * k + 2]] = level[k] + 1
    return int(level.max())


def walk_arrays(feature: np.ndarray, threshold: np.ndarray,
                child: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node arrays :func:`walk` reads, indexed by *twice* the node id.

    ``feature`` and ``threshold`` are repeated twice, and entry
    ``2k + (x <= t)`` of the third holds twice the id of the child node k
    sends such a row to (``child`` with each pair swapped and doubled), so a
    level costs no multiply and no negation.
    """
    return (np.repeat(feature, 2), np.repeat(threshold, 2),
            2 * child.reshape(-1, 2)[:, ::-1].ravel())


def walk(arrays: tuple[np.ndarray, np.ndarray, np.ndarray], depth: int,
         x: np.ndarray) -> np.ndarray:
    """Leaf index per row of a float ``(N, d)`` batch, level-synchronously,
    over :func:`walk_arrays`.

    A row goes right when ``x <= t`` is False, so NaN goes right. Rows that
    reach their leaf early spin on its self-loop until round ``depth``.
    """
    feature2, threshold2, next2 = arrays
    n, d = x.shape
    flat = x.ravel()
    base = np.arange(0, n * d, d)
    node2 = np.zeros(n, dtype=np.int64)
    for _ in range(depth):
        node2 = next2.take(node2 + (flat.take(base + feature2.take(node2))
                                    <= threshold2.take(node2)))
    return (node2 >> 1) - len(feature2) // 4


def traverse(feature: np.ndarray, threshold: np.ndarray, child: np.ndarray,
             depth: int, x: np.ndarray) -> np.ndarray:
    """Leaf index per row of a float ``(N, d)`` batch (see :func:`walk`)."""
    return walk(walk_arrays(feature, threshold, child), depth, x)


def leaf_boxes(feature: np.ndarray, threshold: np.ndarray, right_lo: np.ndarray,
               child: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unbounded per-leaf boxes as inclusive ``(n_leaves, dim)`` lo/hi arrays.

    Going left at node k caps dimension ``feature[k]`` at ``threshold[k]``;
    going right raises its floor to ``right_lo[k]``.
    """
    n_nodes = len(feature)
    n_internal = n_nodes // 2
    lo = np.full((n_nodes, dim), -np.inf)
    hi = np.full((n_nodes, dim), np.inf)
    for k in range(n_internal):                 # parents before children
        f, left, right = feature[k], child[2 * k], child[2 * k + 1]
        lo[left] = lo[right] = lo[k]
        hi[left] = hi[right] = hi[k]
        hi[left, f] = min(hi[k, f], threshold[k])
        lo[right, f] = max(lo[k, f], right_lo[k])
    return lo[n_internal:], hi[n_internal:]


@dataclass
class FuzzyTree:
    """A fitted clustering tree with per-leaf centroids.

    ``predict_index`` returns the fuzzy index; ``centroids[idx]`` is the
    cluster centre used to precompute Map results. The node arrays follow
    the layout in the module docstring; ``depth`` and the leaf boxes are
    derived from them on construction — never lazily, so no serve pays for
    them — and thresholds move only through :meth:`set_thresholds`.
    """

    dim: int
    centroids: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    depth: int = field(init=False)
    _box_lo: np.ndarray = field(init=False, repr=False)
    _box_hi: np.ndarray = field(init=False, repr=False)
    _walk: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.child = np.asarray(self.child, dtype=np.int64)
        n_nodes, k = 2 * self.n_leaves - 1, self.n_internal
        if not (len(self.feature) == len(self.threshold) == n_nodes
                and len(self.child) == 2 * n_nodes):
            raise ShapeError(f"{self.n_leaves} leaves need {n_nodes} nodes, got "
                             f"{len(self.feature)} features, {len(self.threshold)} "
                             f"thresholds, {len(self.child)} child links")
        if not (np.all(self.child[:2 * k] > np.repeat(np.arange(k), 2))
                and np.all(self.child[:2 * k] < n_nodes)
                and np.array_equal(self.child[2 * k:],
                                   np.repeat(np.arange(k, n_nodes), 2))
                and np.all((self.feature >= 0) & (self.feature < self.dim))):
            raise ShapeError("malformed tree arrays: children must follow their "
                             "parent, leaves loop to themselves, features index "
                             f"a {self.dim}-dim input")
        self.depth = tree_depth(self.child)
        self._refresh_derived()

    def _refresh_derived(self) -> None:
        self._walk = walk_arrays(self.feature, self.threshold, self.child)
        # An integer key fails ``x <= t`` exactly when ``x >= floor(t) + 1``
        # (for the integer thresholds ``fit`` produces this equals ``t + 1``;
        # for trees fitted on float data ``t + 1`` would leave the integers
        # in ``(t, t + 1)`` covered by no box).
        self._box_lo, self._box_hi = leaf_boxes(
            self.feature, self.threshold, np.floor(self.threshold) + 1,
            self.child, self.dim)

    @property
    def n_leaves(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_internal(self) -> int:
        return self.n_leaves - 1

    @classmethod
    def fit(cls, x: np.ndarray, n_leaves: int,
            min_cluster: int = 1) -> "FuzzyTree":
        """Grow the tree greedily until ``n_leaves`` leaves (or no split helps)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"FuzzyTree.fit expects (N, d) data, got shape {x.shape}")
        if len(x) == 0:
            raise ShapeError("cannot fit a FuzzyTree on empty data")
        if n_leaves < 1:
            raise ValueError(f"n_leaves must be >= 1, got {n_leaves}")
        members, feature, threshold, child = grow_tree(
            x, n_leaves, 2 * min_cluster, lambda rows: _best_split(x[rows]))
        centroids = np.stack([x[m].mean(axis=0) for m in members])
        return cls(dim=x.shape[1], centroids=centroids, feature=feature,
                   threshold=threshold, child=child)

    def set_thresholds(self, thresholds: np.ndarray) -> None:
        """Move the internal nodes' thresholds (fine-tuning); the leaf boxes
        and the walk arrays follow. Forms compiled from the old thresholds
        are the caller's to drop
        (:meth:`repro.core.mapping.SegmentTable.set_thresholds`)."""
        self.threshold[:self.n_internal] = thresholds
        self._refresh_derived()

    def predict_index(self, x: np.ndarray) -> np.ndarray:
        """Fuzzy indices for a batch ``(N, d)`` (or a single vector)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected dim {self.dim}, got {x.shape[1]}")
        out = walk(self._walk, self.depth, x)
        return out[0] if single else out

    def lookup_centroid(self, x: np.ndarray) -> np.ndarray:
        """The centroid standing in for each input — the fuzzy approximation."""
        return self.centroids[self.predict_index(x)]

    def sse(self, x: np.ndarray) -> float:
        """Total within-cluster SSE of the tree on data ``x``."""
        approx = self.lookup_centroid(x)
        return float(((np.asarray(x, dtype=np.float64) - approx) ** 2).sum())

    def leaf_boxes(self, lo: float = 0.0,
                   hi: float = 255.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf axis-aligned boxes inside the key domain ``[lo, hi]``, as
        inclusive ``(n_leaves, dim)`` lo/hi arrays.

        Box of leaf i is the region of *integer* input space routed to fuzzy
        index i, needed to encode the tree as TCAM range rules; a leaf no
        in-domain key reaches has ``lo > hi`` somewhere.
        """
        return np.maximum(self._box_lo, lo), np.minimum(self._box_hi, hi)

    def leaf_grid(self, lo: int, hi: int) -> np.ndarray | None:
        """``leaf_of[key]`` for every integer key of the domain ``[lo, hi]^dim``
        (flat, first dimension most significant), painted from the leaf
        boxes — or None when clamping a key into the domain could change its
        leaf, i.e. unless every internal threshold has ``lo <= t < hi``.
        """
        t = self.threshold[:self.n_internal]
        if not np.all((t >= lo) & (t < hi)):
            return None
        box_lo, box_hi = self.leaf_boxes(lo, hi)
        first = np.ceil(box_lo).astype(np.int64) - lo
        stop = np.floor(box_hi).astype(np.int64) - lo + 1
        grid = np.empty((hi - lo + 1,) * self.dim,
                        dtype=np.min_scalar_type(self.n_leaves - 1))
        for leaf in range(self.n_leaves):
            grid[tuple(map(slice, first[leaf], stop[leaf]))] = leaf
        return grid.ravel()

    def leaf_prefix_covers(self, key_bits: int, signed: bool) -> list[list | None]:
        """Per leaf, the prefix cover of its box on every dimension in the
        excess-K key domain — or None for a leaf that holds no key."""
        lo, hi = key_domain(key_bits, signed)
        box_lo, box_hi = self.leaf_boxes(lo=lo, hi=hi)
        first = np.clip(np.ceil(box_lo), lo, hi).astype(np.int64) - lo
        last = np.clip(np.floor(box_hi), lo, hi).astype(np.int64) - lo
        return [None if (a > b).any() else
                [range_to_prefixes(int(p), int(q), key_bits) for p, q in zip(a, b)]
                for a, b in zip(first, last)]

    def tcam_entries(self, key_bits: int = 8, signed: bool = False) -> int:
        """TCAM entry count to implement this tree as range rules.

        Two encodings are possible on PISA and the compiler picks the
        cheaper (paper §6.1):

        - *flat*: each leaf box expands to the cross product of its
          per-dimension prefix covers — one lookup, but the product blows up
          for deep trees over wide vectors;
        - *level-wise*: the multi-level comparator runs one single-field
          range match per tree level (Consecutive Range Coding per node),
          costing one prefix cover per internal node.

        Signed keys use excess-K (offset) encoding, the usual trick for
        order-preserving ternary matching of two's-complement values.
        """
        return min(self._tcam_entries_flat(key_bits, signed),
                   self._tcam_entries_levelwise(key_bits, signed))

    def _tcam_entries_flat(self, key_bits: int, signed: bool) -> int:
        return sum(math.prod(len(cover) for cover in covers)
                   for covers in self.leaf_prefix_covers(key_bits, signed)
                   if covers is not None)

    def levelwise_boundaries(self, key_bits: int, signed: bool) -> np.ndarray:
        """Per internal node, the last excess-K key that still goes left:
        integer keys route left iff ``key <= floor(threshold)``."""
        lo, hi = key_domain(key_bits, signed)
        return np.clip(np.floor(self.threshold[:self.n_internal]),
                       lo, hi).astype(np.int64) - lo

    def _tcam_entries_levelwise(self, key_bits: int, signed: bool) -> int:
        # One CRC-coded "x <= t" rule set plus a catch-all per node.
        return sum(len(range_to_prefixes(0, int(b), key_bits)) + 1
                   for b in self.levelwise_boundaries(key_bits, signed))
