"""Mapping optimization (paper §4.4): refine tables after materialization.

Fuzzy matching replaces inputs with centroids, which introduces
approximation error. The paper fine-tunes the stored centroids and cluster
parameters with backpropagation through a soft (differentiable) rendering of
the clustering tree, following Zhang'21's matrix formulation of decision
trees. Two refiners are provided:

- :func:`refine_values_least_squares` — with cluster assignments fixed, the
  optimal table *values* minimize a linear least-squares problem; this is
  the closed-form special case and the default because it is deterministic
  and fast.
- :class:`SoftTreeFineTuner` — full gradient refinement that relaxes each
  comparison ``x_f <= t`` into a sigmoid, so both table values *and*
  thresholds receive gradients (the paper's method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompilationError
from repro.core.fuzzy import FuzzyTree
from repro.core.mapping import LookupLayer


def refine_values_least_squares(layer: LookupLayer, calib_int: np.ndarray,
                                targets: np.ndarray, ridge: float = 1e-6) -> None:
    """Re-solve a sum-reduce layer's table values against float targets.

    With the fuzzy assignment of every calibration input fixed, the layer
    output is linear in the stored values, so the values minimizing
    ``||sum_s V_s[idx_s(x)] - target(x)||^2`` solve a ridge-regularized
    least-squares system. Values are updated in place (re-quantized).
    """
    if not layer.sum_reduce:
        raise CompilationError("least-squares refinement expects a SumReduce layer")
    calib_int = np.asarray(calib_int, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    n = len(calib_int)

    # Design matrix: one-hot fuzzy index per segment, concatenated.
    blocks = []
    offsets = [0]
    for table in layer.tables:
        seg = calib_int[:, table.segment[0]:table.segment[1]]
        if table.kind == "fuzzy":
            idx = table.fuzzy_indices(seg)
        else:
            idx = np.clip(seg[:, 0] - table.exact_lo, 0, table.n_entries - 1)
        hot = np.zeros((n, table.n_entries))
        hot[np.arange(n), idx] = 1.0
        blocks.append(hot)
        offsets.append(offsets[-1] + table.n_entries)
    design = np.concatenate(blocks, axis=1)

    gram = design.T @ design + ridge * np.eye(design.shape[1])
    solution = np.linalg.solve(gram, design.T @ targets)

    fmt = layer.out_format
    for table, start, stop in zip(layer.tables, offsets, offsets[1:]):
        table.values_int = fmt.quantize(solution[start:stop])


def _leaf_paths(tree: FuzzyTree) -> list[list[tuple[int, bool]]]:
    """Per-leaf list of (node, went_left) along the root-to-leaf path."""
    k = tree.n_internal
    # The entry of ``child`` that points at each node: 2 * parent + side.
    link_to = np.zeros(len(tree.feature), dtype=np.int64)
    link_to[tree.child[:2 * k]] = np.arange(2 * k)
    paths = []
    for node in range(k, len(link_to)):
        path = []
        while node != 0:
            link = int(link_to[node])
            node = link // 2
            path.append((node, link % 2 == 0))
        paths.append(path[::-1])
    return paths


@dataclass
class SoftTreeFineTuner:
    """Gradient refinement of one sum-reduce lookup layer.

    Each comparison relaxes to ``sigma((t - x_f) / temperature)``; leaf
    probabilities are path products; the layer output becomes a
    probability-weighted sum of table values, differentiable in both the
    values and the thresholds.
    """

    layer: LookupLayer
    temperature: float = 4.0
    lr_values: float = 0.1
    lr_thresholds: float = 0.5

    def _soft_assign(self, table, seg: np.ndarray) -> tuple:
        """Soft leaf probabilities (N, L), per-node left gates (N, n_internal)
        and the per-leaf paths."""
        tree = table.tree
        k = tree.n_internal
        paths = _leaf_paths(tree)
        gates = 1.0 / (1.0 + np.exp(-(tree.threshold[:k] - seg[:, tree.feature[:k]])
                                    / self.temperature))
        probs = np.ones((len(seg), table.n_entries))
        for leaf, path in enumerate(paths):
            for node, went_left in path:
                s = gates[:, node]
                probs[:, leaf] *= s if went_left else (1.0 - s)
        return probs, gates, paths

    def fit(self, calib_int: np.ndarray, targets: np.ndarray,
            epochs: int = 30, tune_thresholds: bool = True) -> list[float]:
        """Minimize MSE to float targets; returns the loss curve."""
        if not self.layer.sum_reduce:
            raise CompilationError("soft-tree refinement expects a SumReduce layer")
        calib_int = np.asarray(calib_int, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        fmt = self.layer.out_format
        fuzzy_tables = [t for t in self.layer.tables if t.kind == "fuzzy"]

        # Work on float copies of the values.
        values = {id(t): fmt.dequantize(t.values_int) for t in self.layer.tables}
        losses: list[float] = []
        n = len(calib_int)
        for _ in range(epochs):
            # Forward: soft for fuzzy tables, hard for exact tables.
            pred = np.zeros_like(targets)
            cache = {}
            for table in self.layer.tables:
                seg = calib_int[:, table.segment[0]:table.segment[1]]
                if table.kind == "fuzzy":
                    cache[id(table)] = self._soft_assign(table, seg)
                    probs = cache[id(table)][0]
                    pred += probs @ values[id(table)]
                else:
                    idx = np.clip(seg[:, 0].astype(np.int64) - table.exact_lo,
                                  0, table.n_entries - 1)
                    pred += values[id(table)][idx]
            err = pred - targets
            losses.append(float(np.mean(err ** 2)))
            grad_out = 2.0 * err / (n * max(targets.shape[-1], 1))

            for table in fuzzy_tables:
                probs, gates, paths = cache[id(table)]
                v = values[id(table)]
                # Value gradient: dL/dV = P^T grad.
                v -= self.lr_values * (probs.T @ grad_out)
                if not tune_thresholds:
                    continue
                # Threshold gradient via the path-product derivative.
                per_leaf = grad_out @ v.T           # (N, L) dL/dP
                node_grads = np.zeros(table.tree.n_internal)
                for leaf, path in enumerate(paths):
                    for node, went_left in path:
                        s = gates[:, node]
                        ds_dt = s * (1.0 - s) / self.temperature
                        if went_left:
                            factor = probs[:, leaf] / np.maximum(s, 1e-12)
                        else:
                            factor = -probs[:, leaf] / np.maximum(1.0 - s, 1e-12)
                        node_grads[node] += float(
                            np.sum(per_leaf[:, leaf] * factor * ds_dt))
                # Drops the table's compiled TCAM forms with the old thresholds.
                table.set_thresholds(np.floor(
                    table.tree.threshold[:table.tree.n_internal]
                    - self.lr_thresholds * node_grads))

        # Write back quantized values; recompute hard centroids' results.
        for table in self.layer.tables:
            table.values_int = fmt.quantize(values[id(table)])
        return losses
