"""Leo: decision-tree traffic classification in the dataplane (NSDI'24).

Leo maps a CART tree onto MAT rules: every leaf's axis-aligned box expands
into TCAM range rules (the same multi-field expansion Pegasus uses for its
fuzzy trees). Leo is exact — no centroids — but its model family is the
tree itself, which is the accuracy limitation Pegasus's MLP/CNN models beat
on oblique or payload-driven tasks.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.tree import DecisionTree
from repro.core.crc import range_to_prefixes
from repro.dataplane.registers import FlowStateLayout, RegisterField
from repro.models.base import TrafficModel
from repro.net.features import N_STAT_FEATURES, SEQ_WINDOW


class LeoModel(TrafficModel):
    name = "Leo"
    feature_view = "stats"

    def __init__(self, n_classes: int, seed: int = 0, max_nodes: int = 1024):
        super().__init__(n_classes, seed)
        self.tree = DecisionTree(max_nodes=max_nodes)

    def train(self, views: dict[str, np.ndarray]) -> None:
        self.tree.fit(self.view(views, "stats").astype(np.float64),
                      self.view(views, "y"))
        self.trained = True

    def predict_float(self, views: dict[str, np.ndarray]) -> np.ndarray:
        self._require_trained()
        return self.tree.predict(self.view(views, "stats").astype(np.float64))

    def compile_dataplane(self, views: dict[str, np.ndarray]) -> None:
        # Leo's dataplane decision is exact, so compiled == float.
        self._require_trained()
        self.compiled = self.tree

    def predict_dataplane(self, views: dict[str, np.ndarray]) -> np.ndarray:
        self._require_compiled()
        return self.tree.predict(self.view(views, "stats").astype(np.float64))

    def model_size_kbits(self) -> float:
        # Tree nodes store (feature id, 8-bit threshold, child pointers).
        return self.tree.n_nodes * 32 / 1000

    def input_scale_bits(self) -> int:
        return N_STAT_FEATURES * 8

    def flow_layout(self) -> FlowStateLayout:
        return FlowStateLayout(fields=[
            RegisterField("prev_ts", 16),
            RegisterField("max_len", 8), RegisterField("min_len", 8),
            RegisterField("max_ipd", 8), RegisterField("min_ipd", 8),
            RegisterField("count", 8),
            RegisterField("len_hist", 8, count=max(SEQ_WINDOW - 6, 0)),
            RegisterField("ipd_hist", 8, count=1),
        ])  # 80 bits/flow

    # -- resource accounting (Table 6) ---------------------------------------

    def tcam_entries(self) -> int:
        """Ternary entries to realize the tree: the cheaper of the flat
        leaf-box expansion and Leo's level-wise (one range match per tree
        level) layout."""
        self._require_trained()
        boxes = self.tree.leaf_boxes(dim=N_STAT_FEATURES)
        flat = 0
        for box in boxes:
            product = 1
            for b_lo, b_hi in box:
                lo_i = int(np.clip(np.ceil(b_lo), 0, 255))
                hi_i = int(np.clip(np.floor(b_hi), 0, 255))
                if lo_i > hi_i:
                    product = 0
                    break
                product *= len(range_to_prefixes(lo_i, hi_i, 8))
            flat += product

        boundaries = np.clip(
            np.floor(self.tree.threshold[:self.tree.n_leaves - 1]), 0, 255)
        levelwise = sum(len(range_to_prefixes(0, int(t), 8)) + 1
                        for t in boundaries)
        return min(flat, levelwise)

    def tcam_bits(self) -> int:
        return self.tcam_entries() * 2 * N_STAT_FEATURES * 8

    def sram_bits(self) -> int:
        # Leaf -> class action data only.
        return self.tree.n_leaves * 8

    def bus_bits(self) -> int:
        return 8  # just the class id
