"""Tests for the fuzzy-matching clustering tree."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tree import DecisionTree, _best_gini_split
from repro.errors import ShapeError
from repro.core import fuzzy
from repro.core.fuzzy import FuzzyTree, _best_split


class TestBestSplit:
    def test_two_point_split(self):
        x = np.array([[0.0], [10.0]])
        red, feature, threshold = _best_split(x)
        assert feature == 0
        assert 0.0 <= threshold < 10.0
        assert red == pytest.approx(50.0)  # SSE drops from 50 to 0

    def test_no_split_possible_on_identical(self):
        assert _best_split(np.full((5, 2), 3.0)) is None

    def test_single_point(self):
        assert _best_split(np.array([[1.0, 2.0]])) is None

    def test_picks_discriminative_feature(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(0, 0.01, 100),
                             np.concatenate([rng.normal(0, 1, 50), rng.normal(50, 1, 50)])])
        _, feature, _ = _best_split(x)
        assert feature == 1


class TestFuzzyTreePaperExample:
    """The paper's Figure 3 worked example."""

    X = np.array([[1.0, 2], [2, 2], [2, 3], [1, 7], [3, 8], [4, 9], [5, 10]])

    def test_root_split_matches_figure(self):
        # Figure 3 first splits on x1 at threshold 5.
        _, feature, threshold = _best_split(self.X)
        assert feature == 1
        assert threshold == pytest.approx(5.0, abs=1.0)

    def test_four_leaf_centroids(self):
        tree = FuzzyTree.fit(self.X, n_leaves=4)
        cents = {tuple(np.round(c, 2)) for c in tree.centroids}
        # Figure 3's final centroids.
        assert (4.5, 9.5) in cents
        assert (1.0, 7.0) in cents or (2.0, 7.5) in cents

    def test_figure2_lookup(self):
        tree = FuzzyTree.fit(self.X, n_leaves=4)
        idx = tree.predict_index(np.array([3.0, 7.0]))
        centroid = tree.centroids[idx]
        # (3, 7) lands in a cluster near (2, 7.5) / (1, 7) per Figure 2.
        assert centroid[1] > 5.0


class TestFuzzyTree:
    def test_single_leaf_tree(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        tree = FuzzyTree.fit(x, n_leaves=1)
        assert tree.n_leaves == 1
        np.testing.assert_allclose(tree.centroids[0], x.mean(axis=0))
        assert (tree.predict_index(x) == 0).all()

    def test_leaf_count_respected(self):
        x = np.random.default_rng(1).normal(size=(200, 4)) * 20
        tree = FuzzyTree.fit(x, n_leaves=16)
        assert tree.n_leaves == 16

    def test_leaf_count_capped_by_data(self):
        x = np.array([[0.0], [1.0], [5.0]])
        tree = FuzzyTree.fit(x, n_leaves=10)
        assert tree.n_leaves <= 3

    def test_indices_in_range(self):
        x = np.random.default_rng(2).normal(size=(100, 2)) * 10
        tree = FuzzyTree.fit(x, n_leaves=8)
        idx = tree.predict_index(x)
        assert idx.min() >= 0 and idx.max() < tree.n_leaves

    def test_all_leaves_reachable_on_training_data(self):
        x = np.random.default_rng(3).normal(size=(300, 3)) * 10
        tree = FuzzyTree.fit(x, n_leaves=8)
        assert len(set(tree.predict_index(x))) == tree.n_leaves

    def test_sse_decreases_with_leaves(self):
        x = np.random.default_rng(4).normal(size=(300, 3)) * 10
        sses = [FuzzyTree.fit(x, n_leaves=k).sse(x) for k in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(sses, sses[1:]))

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0], [50, 0], [0, 50], [50, 50]])
        x = np.vstack([c + rng.normal(0, 1, (50, 2)) for c in centers])
        tree = FuzzyTree.fit(x, n_leaves=4)
        for center in centers:
            dist = np.linalg.norm(tree.centroids - center, axis=1).min()
            assert dist < 1.0

    def test_centroid_is_mean_of_assigned(self):
        x = np.random.default_rng(6).normal(size=(200, 2)) * 10
        tree = FuzzyTree.fit(x, n_leaves=4)
        idx = tree.predict_index(x)
        for leaf in range(tree.n_leaves):
            rows = x[idx == leaf]
            np.testing.assert_allclose(tree.centroids[leaf], rows.mean(axis=0), atol=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            FuzzyTree.fit(np.zeros((0, 2)), 4)

    def test_wrong_dim_raises(self):
        tree = FuzzyTree.fit(np.random.default_rng(7).normal(size=(20, 3)), 2)
        with pytest.raises(ShapeError):
            tree.predict_index(np.zeros((4, 2)))

    def test_min_cluster(self):
        x = np.random.default_rng(8).normal(size=(64, 2)) * 10
        tree = FuzzyTree.fit(x, n_leaves=64, min_cluster=8)
        idx = tree.predict_index(x)
        counts = np.bincount(idx, minlength=tree.n_leaves)
        assert counts.min() >= 1
        assert tree.n_leaves <= 8  # 64 points / 8 per cluster

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 16), st.integers(0, 10_000))
    def test_partition_property(self, n_leaves, seed):
        """Every input maps to exactly one leaf (tree is a partition)."""
        rng = np.random.default_rng(seed)
        x = np.floor(rng.uniform(0, 255, size=(60, 2)))
        tree = FuzzyTree.fit(x, n_leaves=n_leaves)
        probe = np.floor(rng.uniform(0, 255, size=(30, 2)))
        idx = tree.predict_index(probe)
        assert ((idx >= 0) & (idx < tree.n_leaves)).all()


def _box_hits(lo, hi, keys):
    """How many leaf boxes contain each key."""
    inside = (lo[None] <= keys[:, None]) & (keys[:, None] <= hi[None])
    return inside.all(axis=2).sum(axis=1)


class TestLeafBoxes:
    def test_boxes_partition_space(self):
        rng = np.random.default_rng(9)
        x = np.floor(rng.uniform(0, 255, size=(200, 2)))
        tree = FuzzyTree.fit(x, n_leaves=8)
        lo, hi = tree.leaf_boxes(lo=0, hi=255)
        assert lo.shape == hi.shape == (tree.n_leaves, 2)
        probe = np.floor(rng.uniform(0, 255, size=(100, 2)))
        idx = tree.predict_index(probe)
        assert ((lo[idx] <= probe) & (probe <= hi[idx])).all()

    def test_boxes_disjoint_on_integer_grid(self):
        rng = np.random.default_rng(10)
        x = np.floor(rng.uniform(0, 15, size=(100, 2)))
        tree = FuzzyTree.fit(x, n_leaves=4)
        lo, hi = tree.leaf_boxes(lo=0, hi=15)
        grid = np.stack(np.meshgrid(np.arange(16), np.arange(16)), -1).reshape(-1, 2)
        assert (_box_hits(lo, hi, grid) == 1).all()

    def test_float_threshold_boxes_cover_every_integer_key(self):
        """Regression: trees fitted on float data carry non-integer
        thresholds; the right-child bound must be floor(t) + 1, or the
        integer keys in (t, t + 1) fall into no box — 'no TCAM entry
        matches' holes in the expanded table."""
        from repro.dataplane.tables import (encode_key,
                                            ternary_entries_for_tree,
                                            tcam_lookup)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 255, size=(200, 2))      # NOT floored: float thresholds
        tree = FuzzyTree.fit(x, n_leaves=8)
        internal = tree.threshold[:tree.n_internal]
        assert (internal != np.floor(internal)).any()  # premise: float thresholds
        lo, hi = tree.leaf_boxes(lo=0, hi=255)
        grid = np.stack(np.meshgrid(np.arange(0, 256, 3), np.arange(0, 256, 3)),
                        -1).reshape(-1, 2)
        assert (_box_hits(lo, hi, grid) == 1).all()
        entries = ternary_entries_for_tree(tree, key_bits=8)
        for v0 in range(0, 256, 7):
            for v1 in range(0, 256, 7):
                want = int(tree.predict_index(
                    np.array([v0, v1], dtype=np.float64)))
                assert tcam_lookup(entries, encode_key((v0, v1), 8, False)) \
                    == want

    def test_tcam_entries_positive_and_scales_with_leaves(self):
        rng = np.random.default_rng(11)
        x = np.floor(rng.uniform(0, 255, size=(400, 2)))
        small = FuzzyTree.fit(x, n_leaves=2).tcam_entries(key_bits=8)
        large = FuzzyTree.fit(x, n_leaves=16).tcam_entries(key_bits=8)
        assert small >= 2
        assert large > small

    def test_depth(self):
        x = np.random.default_rng(12).normal(size=(100, 2)) * 10
        tree = FuzzyTree.fit(x, n_leaves=8)
        assert 3 <= tree.depth <= 7


def _scalar_walk(tree, vec):
    """Reference: one key down the node arrays, one comparison at a time.
    Right is "x <= t is False", so NaN goes right."""
    node = 0
    while node < tree.n_internal:
        goes_left = vec[tree.feature[node]] <= tree.threshold[node]
        node = tree.child[2 * node + (0 if goes_left else 1)]
    return node - tree.n_internal


def _probes(rng, d, lo=0, hi=255):
    span = hi - lo
    inside = np.floor(rng.uniform(lo, hi + 1, size=(40, d)))
    outside = rng.uniform(lo - 2 * span, hi + 2 * span, size=(40, d))
    holes = inside.copy()
    holes[rng.random(holes.shape) < 0.3] = np.nan
    return np.concatenate([inside, outside, holes, np.full((1, d), np.nan)])


# Three leaves, float thresholds, a feature compared twice on one path.
HAND_BUILT = dict(dim=2, centroids=np.zeros((3, 2)),
                  feature=[0, 0, 0, 0, 0], threshold=[10.5, 3.25, np.inf, np.inf, np.inf],
                  child=[1, 2, 3, 4, 2, 2, 3, 3, 4, 4])


def _chain_tree(n_leaves):
    """The most unbalanced tree: node k sends x <= k + 0.5 to leaf k, the
    rest on to node k + 1; depth n_leaves - 1."""
    k = n_leaves - 1
    nodes = np.arange(k)
    child = np.stack([k + nodes, nodes + 1], axis=1).ravel()
    child[-1] = 2 * k
    return FuzzyTree(
        dim=1, centroids=np.zeros((n_leaves, 1)),
        feature=np.zeros(2 * k + 1, dtype=np.int64),
        threshold=np.concatenate([nodes + 0.5, np.full(n_leaves, np.inf)]),
        child=np.concatenate([child, np.repeat(np.arange(k, 2 * k + 1), 2)]))


class TestArrayTraversal:
    """predict_index against the scalar walk over the same arrays."""

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([1, 2, 16]), st.integers(1, 256),
           st.booleans(), st.integers(0, 10_000))
    def test_fitted_trees_match_scalar_walk(self, d, n_leaves, skewed, seed):
        rng = np.random.default_rng(seed)
        x = np.floor(rng.uniform(0, 256, size=(300, d)))
        if skewed:      # geometric outliers peel off one at a time: a deep chain
            x[:, 0] = np.floor(1.5 ** rng.integers(0, 40, size=300))
        x = np.concatenate([x, x[:50]])                 # duplicate rows
        tree = FuzzyTree.fit(x, n_leaves=n_leaves)
        probes = _probes(rng, d)
        got = tree.predict_index(probes)
        assert got.dtype == np.int64
        assert got.tolist() == [_scalar_walk(tree, v) for v in probes]

    def test_hand_built_float_thresholds(self):
        tree = FuzzyTree(**HAND_BUILT)
        assert tree.depth == 2
        keys = np.array([[3.0, 0], [3.25, 0], [3.26, 0], [4, 0], [10.5, 0],
                         [10.51, 0], [11, 0], [-1e9, 0], [1e9, 0], [np.nan, 0]])
        assert tree.predict_index(keys).tolist() == [1, 1, 2, 2, 2, 0, 0, 1, 0, 0]
        assert tree.predict_index(keys).tolist() == \
            [_scalar_walk(tree, v) for v in keys]
        # Integer boxes: right of t starts at floor(t) + 1.
        lo, hi = tree.leaf_boxes(lo=0, hi=255)
        assert lo[:, 0].tolist() == [11, 0, 4]
        assert hi[:, 0].tolist() == [255, 3.25, 10.5]

    def test_return_shapes(self):
        rng = np.random.default_rng(0)
        tree = FuzzyTree.fit(rng.normal(size=(50, 3)), n_leaves=4)
        one = tree.predict_index(np.zeros(3))
        assert isinstance(one, np.int64) and one.ndim == 0
        empty = tree.predict_index(np.zeros((0, 3)))
        assert empty.shape == (0,) and empty.dtype == np.int64
        single = FuzzyTree.fit(rng.normal(size=(10, 3)), n_leaves=1)
        assert single.depth == 0 and single.n_internal == 0
        assert single.predict_index(_probes(rng, 3)).tolist() == [0] * 121

    def test_malformed_arrays_rejected(self):
        with pytest.raises(ShapeError):         # node count does not fit 3 leaves
            FuzzyTree(**{**HAND_BUILT, "feature": [0, 0, 0]})
        with pytest.raises(ShapeError):         # child precedes its parent
            FuzzyTree(**{**HAND_BUILT, "child": [1, 2, 0, 4, 2, 2, 3, 3, 4, 4]})
        with pytest.raises(ShapeError):         # leaf does not loop to itself
            FuzzyTree(**{**HAND_BUILT, "child": [1, 2, 3, 4, 2, 2, 3, 3, 4, 3]})
        with pytest.raises(ShapeError):         # feature outside the input
            FuzzyTree(**{**HAND_BUILT, "feature": [0, 2, 0, 0, 0]})

    def test_pickle_round_trip(self):
        """Trees cross to parallel workers under spawn: a 256-leaf chain
        pickles without recursion and predicts identically afterwards."""
        import pickle
        import sys
        rng = np.random.default_rng(3)
        tree = _chain_tree(256)
        assert tree.depth == 255
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(60)
        try:
            back = pickle.loads(pickle.dumps(tree))
        finally:
            sys.setrecursionlimit(limit)
        probes = _probes(rng, 1)
        want = tree.predict_index(probes)
        assert want.tolist() == [_scalar_walk(tree, v) for v in probes]
        np.testing.assert_array_equal(back.predict_index(probes), want)
        for a, b in zip(back.leaf_boxes(0, 255), tree.leaf_boxes(0, 255)):
            np.testing.assert_array_equal(a, b)

    def test_set_thresholds_moves_boxes(self):
        tree = FuzzyTree(**HAND_BUILT)
        tree.set_thresholds([20.0, 5.0])
        lo, hi = tree.leaf_boxes(lo=0, hi=255)
        assert lo[:, 0].tolist() == [21, 0, 6]
        assert hi[:, 0].tolist() == [255, 5, 20]
        assert tree.predict_index(np.array([[5.0, 0], [6, 0], [21, 0]])).tolist() \
            == [1, 2, 0]


# -- bit-identity against the per-feature fit --------------------------------

def _reference_best_split(x):
    """The per-feature scoring loop: one argsort and one (n, d) prefix sum
    per feature, the strict ``>`` rule across features."""
    n, d = x.shape
    if n < 2:
        return None
    sq = (x ** 2).sum(axis=1)
    total_sse = float(sq.sum() - (x.sum(axis=0) ** 2).sum() / n)
    best = None
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order]
        vs = xs[:, f]
        valid = vs[:-1] < vs[1:]
        if not valid.any():
            continue
        csum = np.cumsum(xs, axis=0)
        csq = np.cumsum(sq[order])
        idx = np.nonzero(valid)[0]
        n_left = idx + 1
        n_right = n - n_left
        left_sq = csq[idx]
        left_sum = csum[idx]
        right_sq = csq[-1] - left_sq
        right_sum = csum[-1] - left_sum
        sse_left = left_sq - (left_sum ** 2).sum(axis=1) / n_left
        sse_right = right_sq - (right_sum ** 2).sum(axis=1) / n_right
        reduction = total_sse - (sse_left + sse_right)
        k = int(np.argmax(reduction))
        red = float(reduction[k])
        if red <= 1e-12:
            continue
        threshold = float(np.floor((vs[idx[k]] + vs[idx[k] + 1]) / 2.0))
        if threshold < vs[idx[k]]:
            threshold = float(vs[idx[k]])
        if best is None or red > best[0]:
            best = (red, f, threshold)
    return best


def _reference_grow(x, max_leaves, min_rows, best_split):
    """Linear-scan growth: every split takes ``max((gain, slot))`` over the
    whole frontier."""
    members = [np.arange(len(x))]
    splits = [best_split(members[0])]
    feature, threshold, child, points_at = [], [], [], {}
    while len(members) < max_leaves:
        candidates = [(s[0], i) for i, s in enumerate(splits)
                      if s is not None and len(members[i]) >= min_rows]
        if not candidates:
            break
        _, leaf = max(candidates)
        _, f, t = splits[leaf]
        rows = members[leaf]
        mask = x[rows, f] <= t
        left_rows, right_rows = rows[mask], rows[~mask]
        if len(left_rows) == 0 or len(right_rows) == 0:
            splits[leaf] = None
            continue
        right_slot = len(members)
        members[leaf] = left_rows
        members.append(right_rows)
        splits[leaf] = best_split(left_rows)
        splits.append(best_split(right_rows))
        if leaf in points_at:
            child[points_at[leaf]] = len(feature)
        feature.append(f)
        threshold.append(t)
        points_at[leaf] = len(child)
        points_at[right_slot] = len(child) + 1
        child += [~leaf, ~right_slot]
    n_internal, n_leaves = len(feature), len(members)
    links = np.asarray(child, dtype=np.int64)
    return (members,
            np.concatenate([np.asarray(feature, dtype=np.int64),
                            np.zeros(n_leaves, dtype=np.int64)]),
            np.concatenate([np.asarray(threshold, dtype=np.float64),
                            np.full(n_leaves, np.inf)]),
            np.concatenate([np.where(links < 0, n_internal + ~links, links),
                            np.repeat(np.arange(n_internal, n_internal + n_leaves), 2)]))


def _fit_data(rng, kind, n, d):
    """Integer data with heavy ties, duplicated rows and a duplicated
    column (exact gain ties between features), or uniform floats."""
    if kind == "floats":
        return rng.uniform(-50, 50, size=(n, d))
    x = np.floor(rng.uniform(0, 6 if kind == "ties" else 256, size=(n, d)))
    x[n // 2:] = x[:n - n // 2]                         # duplicated rows
    if d > 1:
        x[:, -1] = x[:, 0]                              # duplicated column
    return x


def _assert_same_fit(x, n_leaves, min_cluster):
    members, feature, threshold, child = _reference_grow(
        x, n_leaves, 2 * min_cluster, lambda rows: _reference_best_split(x[rows]))
    tree = FuzzyTree.fit(x, n_leaves, min_cluster=min_cluster)
    np.testing.assert_array_equal(tree.feature, feature)
    np.testing.assert_array_equal(tree.threshold, threshold)
    np.testing.assert_array_equal(tree.child, child)
    np.testing.assert_array_equal(
        tree.centroids, np.stack([x[m].mean(axis=0) for m in members]))


class TestFitBitIdentity:
    """The one-pass scoring and the heap frontier grow exactly the trees of
    the per-feature loop and the linear frontier scan: equal arrays, not
    close ones."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.sampled_from(["ties", "ints", "floats"]), st.sampled_from([1, 2, 16, 60]),
           st.integers(2, 120), st.sampled_from([1, 3]), st.integers(0, 2**16),
           st.booleans())
    def test_fit_matches_per_feature_reference(self, kind, d, n_leaves, min_cluster,
                                               seed, narrow_blocks):
        """``narrow_blocks`` scores a few features per block, so the first
        feature of the largest gain must win across blocks too."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 100))
        x = _fit_data(rng, kind, n, d)
        cells = n * d * max(1, d // 5) if narrow_blocks else fuzzy._BLOCK_CELLS
        with mock.patch.object(fuzzy, "_BLOCK_CELLS", cells):
            _assert_same_fit(x, n_leaves, min_cluster)

    def test_wider_than_one_block(self):
        """(4,500, 60) takes 20 blocks of 3 features at the shipped block
        size; column 59 repeats column 0, so their gains tie exactly."""
        rng = np.random.default_rng(0)
        x = _fit_data(rng, "ints", 4500, 60)
        assert 4500 * 60 * 3 <= fuzzy._BLOCK_CELLS < 4500 * 60 * 4
        want = _reference_best_split(x)
        assert _best_split(x) == want
        x[:, 1:59] = 0.0                    # only the tied pair can split
        assert _best_split(x) == _reference_best_split(x)
        assert _best_split(x)[1] == 0

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(st.integers(0, 2**16), st.sampled_from([15, 63, 1023]), st.sampled_from([1, 2, 5]))
    def test_decision_tree_matches_linear_frontier(self, seed, max_nodes, min_leaf):
        rng = np.random.default_rng(seed)
        x = _fit_data(rng, "ties", 200, 4)
        y = rng.integers(0, 3, size=200)
        members, feature, threshold, child = _reference_grow(
            x, (max_nodes + 1) // 2, 2 * min_leaf,
            lambda rows: _best_gini_split(x[rows], y[rows], 3))
        tree = DecisionTree(max_nodes=max_nodes, min_leaf=min_leaf).fit(x, y)
        np.testing.assert_array_equal(tree.feature, feature)
        np.testing.assert_array_equal(tree.threshold, threshold)
        np.testing.assert_array_equal(tree.child, child)
        np.testing.assert_array_equal(
            tree.leaf_classes, [np.bincount(y[m], minlength=3).argmax() for m in members])
