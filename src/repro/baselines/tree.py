"""A from-scratch CART decision-tree classifier (Leo's model family).

Best-first growth: the leaf whose best Gini split yields the largest
impurity reduction is split next, until ``max_nodes`` is reached — matching
how Leo sizes trees by node budget (the paper deploys a 1024-node tree).
The fitted tree is held in the flat node arrays of :mod:`repro.core.fuzzy`
and predicts through the same level-synchronous traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fuzzy import grow_tree, leaf_boxes, traverse, tree_depth
from repro.errors import ShapeError, TrainingError


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p ** 2).sum())


def _best_gini_split(x: np.ndarray, y: np.ndarray, n_classes: int
                     ) -> tuple[float, int, float] | None:
    """Best (impurity_reduction, feature, threshold) over all features."""
    n, d = x.shape
    if n < 2:
        return None
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_gini = _gini(parent_counts)
    best: tuple[float, int, float] | None = None
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]
        right_counts = parent_counts[None, :] - left_counts
        n_left = np.arange(1, n)
        n_right = n - n_left
        with np.errstate(invalid="ignore", divide="ignore"):
            g_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
            g_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * g_left + n_right * g_right) / n
        weighted[~valid] = np.inf
        k = int(np.argmin(weighted))
        reduction = parent_gini - weighted[k]
        if reduction <= 1e-12:
            continue
        threshold = float(np.floor((xs[k] + xs[k + 1]) / 2.0))
        if threshold < xs[k]:
            threshold = float(xs[k])
        if best is None or reduction > best[0]:
            best = (float(reduction), f, threshold)
    return best


@dataclass
class DecisionTree:
    """CART classifier with a node budget."""

    max_nodes: int = 1024
    min_leaf: int = 2
    n_classes: int = 0
    # Node arrays in the repro.core.fuzzy layout; a single leaf until fitted.
    feature: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    threshold: np.ndarray = field(default_factory=lambda: np.full(1, np.inf))
    child: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=np.int64))
    depth: int = 0
    leaf_classes: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_classes)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or len(x) != len(y):
            raise ShapeError(f"bad training shapes {x.shape} / {y.shape}")
        if len(x) == 0:
            raise TrainingError("cannot fit a tree on no data")
        self.n_classes = int(y.max()) + 1

        # Each split adds 2 nodes; stop before exceeding the budget.
        members, self.feature, self.threshold, self.child = grow_tree(
            x, (self.max_nodes + 1) // 2, 2 * self.min_leaf,
            lambda rows: _best_gini_split(x[rows], y[rows], self.n_classes))
        self.depth = tree_depth(self.child)
        self.leaf_classes = np.array(
            [np.bincount(y[m], minlength=self.n_classes).argmax() for m in members],
            dtype=np.int64)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        return self.leaf_classes[traverse(self.feature, self.threshold,
                                          self.child, self.depth, x)]

    def leaf_boxes(self, dim: int, lo: float = 0.0, hi: float = 255.0) -> np.ndarray:
        """Per-leaf axis-aligned boxes, for MAT encoding (Leo): an
        ``(n_leaves, dim, 2)`` array of inclusive (lo, hi) pairs."""
        box_lo, box_hi = leaf_boxes(self.feature, self.threshold,
                                    self.threshold + 1, self.child, dim)
        return np.stack([np.maximum(box_lo, lo), np.minimum(box_hi, hi)], axis=-1)
