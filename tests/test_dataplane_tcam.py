"""Vectorized TCAM engine: bit-identity with the scalar TCAM reference
(`lookup_prioritized`), the tree walk, and the fancy-index SRAM path — from
single packed tables up through the full serving stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crc import consecutive_range_coding, lookup_prioritized
from repro.core.fuzzy import FuzzyTree
from repro.core.mapping import LOOKUP_BACKENDS
from repro.dataplane.runtime import TwoStageRuntime, WindowedClassifierRuntime
from repro.dataplane.tcam import (PackedTernaryTable, TcamSegment,
                                  compile_segment_table, encode_keys,
                                  tcam_table_report)
from repro.errors import CompilationError, ShapeError
from repro.serving import BatchScheduler, FlowDecisionCache
from repro.serving.dispatcher import ShardedDispatcher   # un-deprecated core

ENCODINGS = ("flat", "levelwise")


class TestPackedTernaryTable:
    @given(st.sets(st.integers(0, 254), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_crc_pack_matches_scalar_reference(self, bounds):
        """A packed CRC table answers every 8-bit key exactly like
        first-match-wins lookup_prioritized over the same entries."""
        entries = consecutive_range_coding(sorted(bounds), 8)
        table = PackedTernaryTable.from_prioritized(entries, key_bits=8)
        keys = np.arange(256)[:, None]
        want = [lookup_prioritized(entries, int(k)) for k in range(256)]
        assert table.lookup(keys).tolist() == want

    def test_priority_tie_break_is_entry_order(self):
        # Two wildcard entries with equal priority: the scalar reference
        # keeps the first; argmin must pick the same one.
        from repro.core.crc import PrioritizedEntry, TernaryMatch
        wild = TernaryMatch(value=0, mask=0, width=8)
        entries = [PrioritizedEntry(wild, priority=3, result=7),
                   PrioritizedEntry(wild, priority=3, result=9)]
        table = PackedTernaryTable.from_prioritized(entries, key_bits=8)
        assert table.lookup(np.array([[5]]))[0] == \
            lookup_prioritized(entries, 5) == 7

    def test_no_match_raises(self):
        entries = consecutive_range_coding([10], 8)[:-1]   # drop catch-all
        table = PackedTernaryTable.from_prioritized(entries, key_bits=8)
        with pytest.raises(LookupError):
            table.lookup(np.array([[200]]))

    def test_non_integral_keys_rejected(self):
        table = PackedTernaryTable.from_prioritized(
            consecutive_range_coding([10], 8), key_bits=8)
        with pytest.raises(ShapeError):
            table.lookup(np.array([[1.5]]))

    def test_integral_float_keys_accepted(self):
        table = PackedTernaryTable.from_prioritized(
            consecutive_range_coding([10], 8), key_bits=8)
        assert table.lookup(np.array([[7.0], [200.0]])).tolist() == [0, 1]

    def test_signed_excess_k_encoding_orders(self):
        enc = encode_keys(np.array([[-128], [-1], [0], [127]]), 8, signed=True)
        assert enc[:, 0].tolist() == [0, 127, 128, 255]
        assert encode_keys(np.array([[300], [-300]]), 8, True)[:, 0].tolist() \
            == [255, 0]                                    # fixed-width clamp


def _fit_tree(rng, n, d, n_leaves, lo=0, hi=255, integral=True):
    x = rng.uniform(lo, hi, size=(n, d))
    if integral:
        x = np.floor(x)
    return FuzzyTree.fit(x, n_leaves=n_leaves)


class TestTcamSegment:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("signed", [False, True])
    def test_both_encodings_match_tree_walk(self, encoding, signed):
        rng = np.random.default_rng(3)
        lo = -128 if signed else 0
        hi = lo + 255
        tree = _fit_tree(rng, 400, 3, 16, lo=lo, hi=hi)
        seg = TcamSegment.from_tree(tree, key_bits=8, signed=signed,
                                    encoding=encoding)
        keys = rng.integers(lo, hi + 1, size=(600, 3))
        np.testing.assert_array_equal(seg.lookup_indices(keys),
                                      tree.predict_index(keys))

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_float_threshold_tree_covers_all_integer_keys(self, encoding):
        """Trees fitted on float data have non-integer thresholds; the
        leaf-box off-by-one fix means every integer key still lands in
        exactly one entry set."""
        rng = np.random.default_rng(7)
        tree = _fit_tree(rng, 300, 2, 8, integral=False)
        seg = TcamSegment.from_tree(tree, key_bits=8, encoding=encoding)
        a, b = np.meshgrid(np.arange(0, 256, 5), np.arange(0, 256, 5))
        keys = np.column_stack([a.ravel(), b.ravel()])
        np.testing.assert_array_equal(seg.lookup_indices(keys),
                                      tree.predict_index(keys))

    def test_out_of_domain_keys_clamp_like_the_tree(self):
        rng = np.random.default_rng(5)
        tree = _fit_tree(rng, 300, 2, 8)
        seg = TcamSegment.from_tree(tree, key_bits=8)
        keys = rng.integers(-500, 800, size=(300, 2))
        # Fitted thresholds sit strictly inside the domain, so the fixed-
        # width clamp routes exactly like the unbounded tree walk.
        np.testing.assert_array_equal(seg.lookup_indices(keys),
                                      tree.predict_index(keys))

    def test_auto_picks_min_entry_encoding(self):
        rng = np.random.default_rng(11)
        tree = _fit_tree(rng, 500, 8, 16)   # wide segment: flat blows up
        seg = TcamSegment.from_tree(tree, key_bits=8, encoding="auto")
        assert seg.encoding == "levelwise"
        assert seg.n_entries == tree.tcam_entries(key_bits=8)

    def test_single_leaf_tree(self):
        tree = FuzzyTree.fit(np.zeros((5, 2)), n_leaves=1)
        seg = TcamSegment.from_tree(tree, key_bits=8)
        assert seg.lookup_indices(np.array([[3, 200]])).tolist() == [0]

    def test_unknown_encoding_rejected(self):
        tree = FuzzyTree.fit(np.zeros((5, 2)), n_leaves=1)
        with pytest.raises(CompilationError):
            TcamSegment.from_tree(tree, encoding="sram")

    def test_wrong_dim_rejected(self):
        rng = np.random.default_rng(0)
        seg = TcamSegment.from_tree(_fit_tree(rng, 100, 2, 4), key_bits=8)
        with pytest.raises(ShapeError):
            seg.lookup_indices(np.zeros((4, 3), dtype=np.int64))

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_scalar_prioritized_crosscheck(self, encoding):
        """Every materialized table, packed into scalar PrioritizedEntry
        form, reproduces the vectorized lookup through lookup_prioritized."""
        rng = np.random.default_rng(13)
        tree = _fit_tree(rng, 300, 2, 8)
        seg = TcamSegment.from_tree(tree, key_bits=8, encoding=encoding)
        for packed in seg.node_tables():
            keys = rng.integers(0, 256, size=(64, packed.n_fields))
            entries = packed.entries()
            scalar = [lookup_prioritized(entries, k)
                      for k in packed.pack_keys(keys)]
            assert packed.lookup(keys).tolist() == scalar


# Per fuzzy table of the compiled16 fixture: chosen encoding, materialized /
# flat / levelwise entry counts, and a digest of the flat ternary entry list —
# taken from the node-object trees of PR 11, so any tree representation must
# reproduce them byte for byte.
COMPILED16_TABLES = [
    ("levelwise", 71, 362, 71, "377993d5bb815994"),
    ("levelwise", 71, 327, 71, "f98c36c9454a1edd"),
    ("levelwise", 69, 373, 69, "cea042740815dfd8"),
    ("levelwise", 69, 260, 69, "93d48400e6c73d28"),
    ("levelwise", 78, 393, 78, "dbbba4cbe4fdb3ad"),
    ("levelwise", 74, 369, 74, "ede41da181adc2ae"),
    ("levelwise", 70, 377, 70, "d0c36df9741e833b"),
    ("levelwise", 84, 398, 84, "cfae4f7932e66f3d"),
    ("levelwise", 63, 3411, 63, "f74fc3e125598aa6"),
]


class TestCompiledModelBackend:
    def test_derived_outputs_pinned(self, compiled16):
        import hashlib
        from repro.dataplane.tables import ternary_entries_for_tree
        fuzzy = [t for layer in compiled16.layers for t in layer.tables
                 if t.kind == "fuzzy"]
        got = []
        for table, row in zip(fuzzy, tcam_table_report(compiled16)):
            entries = ternary_entries_for_tree(table.tree, table.in_bits,
                                               table.in_signed)
            assert len(entries) == row["entries_flat"]
            assert table.tree.tcam_entries(table.in_bits, table.in_signed) \
                == min(row["entries_flat"], row["entries_levelwise"])
            got.append((row["encoding"], row["entries"], row["entries_flat"],
                        row["entries_levelwise"],
                        hashlib.sha256(repr(entries).encode()).hexdigest()[:16]))
        assert got == COMPILED16_TABLES
        assert (compiled16.sram_bits(), compiled16.tcam_bits()) == (8576, 26816)

    def test_forward_int_backends_bit_identical(self, compiled16):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 256, size=(400, 16))
        np.testing.assert_array_equal(
            compiled16.forward_int(x),
            compiled16.forward_int(x, lookup_backend="tcam"))

    def test_predict_and_scores_backends(self, compiled16):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 256, size=(100, 16))
        np.testing.assert_array_equal(
            compiled16.predict(x), compiled16.predict(x, lookup_backend="tcam"))
        np.testing.assert_array_equal(
            compiled16.predict_scores(x),
            compiled16.predict_scores(x, lookup_backend="tcam"))

    def test_empty_batch_supported(self, compiled16):
        out = compiled16.forward_int(np.zeros((0, 16), dtype=np.int64),
                                     lookup_backend="tcam")
        assert out.shape[0] == 0

    def test_unknown_backend_rejected(self, compiled16):
        with pytest.raises(ValueError, match="lookup_backend"):
            compiled16.forward_int(np.zeros((1, 16), dtype=np.int64),
                                   lookup_backend="sram")
        # Per-layer and per-table entry points validate too — a typo must
        # never silently fall back to the index path.
        layer = compiled16.layers[0]
        with pytest.raises(ValueError, match="lookup_backend"):
            layer.forward_int(np.zeros((1, layer.in_dim), dtype=np.int64),
                              lookup_backend="TCAM")
        table = layer.tables[0]
        d = table.segment[1] - table.segment[0]
        with pytest.raises(ValueError, match="lookup_backend"):
            table.lookup(np.zeros((1, d), dtype=np.int64),
                         lookup_backend="tcan")
        assert set(LOOKUP_BACKENDS) == {"index", "tcam", "tcam-pruned"}

    def test_segment_table_paths_agree(self, compiled16):
        rng = np.random.default_rng(4)
        for layer in compiled16.layers:
            for table in layer.tables:
                lo = -(1 << (table.in_bits - 1)) if table.in_signed else 0
                hi = lo + (1 << table.in_bits) - 1
                d = table.segment[1] - table.segment[0]
                x = rng.integers(lo, hi + 1, size=(200, d))
                np.testing.assert_array_equal(
                    table.lookup(x), table.lookup(x, lookup_backend="tcam"))
                if table.kind == "fuzzy":
                    np.testing.assert_array_equal(table.tcam_indices(x),
                                                  table.fuzzy_indices(x))
                    assert table.tcam_segment() is table.tcam_segment()

    def test_exact_table_has_no_tcam_form(self):
        from repro.core.mapping import SegmentTable
        from repro.utils.fixed_point import QFormat
        table = SegmentTable(segment=(0, 1), kind="exact",
                             values_int=np.zeros((256, 2), dtype=np.int64),
                             out_format=QFormat(8, 0), in_bits=8)
        with pytest.raises(CompilationError):
            compile_segment_table(table)

    def test_table_report_shape(self, compiled16):
        rows = tcam_table_report(compiled16)
        assert rows and all(r["encoding"] in ENCODINGS for r in rows)
        assert all(r["entries"] == min(r["entries_flat"],
                                       r["entries_levelwise"]) for r in rows)


class TestRuntimeBackend:
    def test_windowed_tcam_matches_index_and_scalar(self, compiled16,
                                                    replay_flows):
        scalar = WindowedClassifierRuntime(
            compiled16, feature_mode="stats").process_flows_scalar(replay_flows)
        index = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=32).process_flows(replay_flows)
        tcam = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=32,
            lookup_backend="tcam").process_flows(replay_flows)
        assert scalar == index == tcam

    def test_windowed_scalar_path_uses_backend(self, compiled16, replay_flows):
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="stats").process_flows_scalar(replay_flows)
        got = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            lookup_backend="tcam").process_flows_scalar(replay_flows)
        assert got == ref

    def test_set_lookup_backend_validates(self, compiled16):
        runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats")
        with pytest.raises(ValueError, match="lookup_backend"):
            runtime.set_lookup_backend("sram")
        with pytest.raises(ValueError, match="CompiledModel"):
            WindowedClassifierRuntime(object(), feature_mode="stats",
                                      lookup_backend="tcam")

    def test_two_stage_tcam_matches_index(self, replay_flows):
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
        slot_values = [rng.integers(-50, 50, size=(16, 3)) for _ in range(8)]
        def run(backend):
            return TwoStageRuntime(
                tree, slot_values, n_classes=3, idx_bits=4, batch_size=32,
                lookup_backend=backend).process_flows(replay_flows)
        assert run("tcam") == run("index")

    def test_two_stage_rejects_tcam_with_feature_fn(self):
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(100, 60)), n_leaves=4)
        slot_values = [rng.integers(-5, 5, size=(4, 3)) for _ in range(8)]
        with pytest.raises(ValueError, match="feature_fn"):
            TwoStageRuntime(tree, slot_values, n_classes=3,
                            feature_fn=lambda x, ipd: x,
                            lookup_backend="tcam")


class TestDispatcherBackend:
    @pytest.mark.parametrize("cached", [False, True])
    def test_sharded_tcam_matches_index(self, compiled16, replay_flows,
                                        cached):
        def factory():
            cache = FlowDecisionCache(capacity=4096) if cached else None
            return WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=32,
                decision_cache=cache)
        ref = ShardedDispatcher(
            runtime_factory=factory, n_shards=2,
            scheduler=BatchScheduler(batch_size=32)).serve_flows(replay_flows)
        got = ShardedDispatcher(
            runtime_factory=factory, n_shards=2,
            scheduler=BatchScheduler(batch_size=32),
            lookup_backend="tcam").serve_flows(replay_flows)
        assert got == ref
        assert ref

    def test_parallel_tcam_matches_index(self, compiled16, replay_flows):
        from repro.serving.parallel import ParallelDispatcher
        def factory():
            return WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=32,
                decision_cache=FlowDecisionCache(capacity=4096))
        ref = ShardedDispatcher(
            runtime_factory=factory, n_shards=2,
            scheduler=BatchScheduler(batch_size=32)).serve_flows(replay_flows)
        with ParallelDispatcher(
                runtime_factory=factory, n_workers=2,
                scheduler=BatchScheduler(batch_size=32),
                lookup_backend="tcam") as dispatcher:
            got = dispatcher.serve_flows(replay_flows)
        assert got == ref

    def test_bad_backend_fails_before_fork(self, compiled16):
        from repro.serving.parallel import ParallelDispatcher
        with pytest.raises(ValueError, match="lookup_backend"):
            ParallelDispatcher(
                runtime_factory=lambda: WindowedClassifierRuntime(
                    compiled16, feature_mode="stats"),
                n_workers=1, lookup_backend="sram")

    def test_unsupported_replica_fails_worker_start(self):
        """A backend the replica can't serve (valid name, wrong model) still
        surfaces from the warm-up ping with the worker's traceback."""
        from repro.serving.parallel import ParallelDispatcher
        dispatcher = ParallelDispatcher(
            runtime_factory=lambda: WindowedClassifierRuntime(
                object(), feature_mode="stats"),
            n_workers=1, lookup_backend="tcam")
        with pytest.raises(RuntimeError, match="CompiledModel"):
            dispatcher.start()
