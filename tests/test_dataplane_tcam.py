"""Vectorized TCAM engine: bit-identity with the scalar TCAM reference
(`lookup_prioritized`), the tree walk, and the fancy-index SRAM path — from
single packed tables up through the full serving stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crc import consecutive_range_coding, lookup_prioritized
from repro.core.fuzzy import FuzzyTree, key_domain
from repro.core.mapping import LOOKUP_BACKENDS
from repro.dataplane import tcam
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime, flows_to_trace)
from repro.dataplane.tcam import (PRUNED_MAX_FLAT_ENTRIES, PackedTernaryTable,
                                  TcamSegment, compile_segment_table,
                                  encode_keys, pack_words, tcam_table_report)
from repro.errors import CompilationError, ConfigError, ShapeError
from repro.eval.differential import scalar_replay
from repro.net.traces import Trace
from repro.serving import EngineConfig, FlowDecisionCache, PegasusEngine
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

    @pytest.mark.parametrize("n_fields,key_bits", [(1, 8), (9, 8), (60, 8),
                                                   (3, 16), (5, 21)])
    def test_packed_words_are_the_scalar_packing(self, n_fields, key_bits):
        """Concatenated, a key's match words are pack_keys' wide integer
        shifted left by the zero padding of the last word."""
        rng = np.random.default_rng(n_fields)
        keys = rng.integers(0, 1 << key_bits, size=(20, n_fields))
        table = PackedTernaryTable(
            values=keys[:1], masks=np.zeros((1, n_fields), dtype=np.int64),
            priorities=[0], results=[0], key_bits=key_bits)
        words = pack_words(keys, key_bits)
        per_word = -(-n_fields // words.shape[1])
        assert per_word * key_bits <= tcam.WORD_BITS
        pad = words.shape[1] * per_word - n_fields
        joined = [sum(int(w) << ((len(row) - 1 - i) * per_word * key_bits)
                      for i, w in enumerate(row)) for row in words]
        assert joined == [k << (pad * key_bits)
                          for k in table.pack_keys(keys)]

    def test_workspace_bound_chunks_keep_results(self, monkeypatch):
        """A tiny workspace bound splits every call into many chunks; the
        results, and the row a miss is reported for, must not move."""
        rng = np.random.default_rng(9)
        tree = _fit_tree(rng, 300, 9, 12)
        seg = TcamSegment.from_tree(tree, key_bits=8, encoding="pruned")
        keys = rng.integers(0, 256, size=(150, 9))
        want = tree.predict_index(keys)
        assert seg.encoding == "flat" and pack_words(keys, 8).shape[1] == 2
        monkeypatch.setattr(tcam, "_MATCH_CELLS", 5)
        np.testing.assert_array_equal(seg.lookup_indices(keys, pruned=True), want)
        np.testing.assert_array_equal(seg.flat.lookup_encoded(keys), want)
        entries = consecutive_range_coding([10], 8)[:-1]      # no catch-all
        table = PackedTernaryTable.from_prioritized(entries, key_bits=8)
        with pytest.raises(LookupError, match=r"\[200\]"):
            table.lookup(np.array([[1], [2], [3], [200], [4]]))

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_non_finite_keys_rejected(self, encoding, bad):
        # +inf once cast to INT64_MIN and clamped to key 0: TCAM leaf 0
        # where the tree walk routes right (to leaf 7 here), with no error.
        rng = np.random.default_rng(5)
        tree = _fit_tree(rng, 300, 2, 8)
        seg = TcamSegment.from_tree(tree, key_bits=8, encoding=encoding)
        with pytest.raises(ShapeError, match="finite"):
            seg.lookup_indices(np.array([[bad, bad]]))

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


def _walk_node_scans(seg: TcamSegment, enc: np.ndarray) -> list[int]:
    """Levelwise reference: walk each row node by node, every node answered
    by a full scan of its own table."""
    out = []
    for row in enc:
        node = 0
        while node < len(seg.levels):
            side = seg.levels[node].lookup_encoded(
                row[[seg.feature[node]]][None], pruned=False)[0]
            node = seg.child[2 * node + side]
        out.append(node - len(seg.levels))
    return out


class TestKernelProperty:
    @given(dim=st.sampled_from([1, 2, 3, 9, 16]),
           n_leaves=st.integers(1, 64),
           signed=st.booleans(),
           encoding=st.sampled_from(["flat", "levelwise", "pruned"]),
           n_keys=st.sampled_from([0, 1, 7, 40]),
           spread=st.sampled_from([0, 300]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_tree_and_full_scan(self, dim, n_leaves, signed,
                                               encoding, n_keys, spread,
                                               seed):
        """Every kernel (full scan, pruned, levelwise walk) answers like the
        tree walk and like the full scan, in and out of the key domain (at
        8 bits, d = 9 and d = 16 keys take two and three match words)."""
        rng = np.random.default_rng(seed)
        lo, hi = key_domain(8, signed)
        tree = _fit_tree(rng, 150, dim, n_leaves, lo=lo, hi=hi)
        if encoding == "flat" and \
                tree._tcam_entries_flat(8, signed) > PRUNED_MAX_FLAT_ENTRIES:
            encoding = "levelwise"          # the cross product blows up
        seg = TcamSegment.from_tree(tree, key_bits=8, signed=signed,
                                    encoding=encoding)
        keys = rng.integers(lo - spread, hi + spread + 1, size=(n_keys, dim))
        got = seg.lookup_indices(keys, pruned=encoding == "pruned")
        np.testing.assert_array_equal(got, tree.predict_index(keys))
        enc = encode_keys(keys, 8, signed)
        if seg.encoding == "flat":
            full = seg.flat.lookup_encoded(enc, pruned=False)
        else:
            full = _walk_node_scans(seg, enc)
        assert got.tolist() == list(full)


@pytest.fixture(scope="module")
def packed_tables(compiled16):
    tables = [t for t in compiled16.layers[0].tables if t.kind == "fuzzy"]
    packed = [t.tcam_segment(pruned=True).flat for t in tables]
    packed = [p for p in packed
              if p is not None and p.pruned_index() is not None]
    assert packed, "reference model must exercise the pruned kernel"
    return packed


class TestPrunedSupersetProperty:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_candidates_contain_full_scan_winner(self, packed_tables, data):
        packed = packed_tables[
            data.draw(st.integers(0, len(packed_tables) - 1))]
        n_fields = packed.values.shape[1]
        domain_hi = (1 << packed.key_bits) - 1
        n = data.draw(st.integers(min_value=1, max_value=8))
        keys_u = np.asarray(
            data.draw(st.lists(
                st.lists(st.integers(0, domain_hi),
                         min_size=n_fields, max_size=n_fields),
                min_size=n, max_size=n)), dtype=np.int64)

        index = packed.pruned_index()
        cands = [index.candidates[s]
                 for s in index.segment_of(keys_u[:, index.field_idx])]
        match = ((keys_u[:, None, :] & packed.masks[None, :, :])
                 == packed.values[None, :, :]).all(axis=2)
        assert match.any(axis=1).all()      # tree tables cover the domain
        for i in range(n):
            rows = np.nonzero(match[i])[0]
            winner = rows[np.argmin(packed.priorities[rows])]
            assert winner in cands[i]
        # ... and the pruned lookup itself stays bit-identical.
        np.testing.assert_array_equal(
            packed.lookup_encoded(keys_u, pruned=True),
            packed.lookup_encoded(keys_u, pruned=False))

    def test_non_prefix_masks_disable_pruning(self):
        table = PackedTernaryTable(
            values=np.asarray([[0b0101]], dtype=np.int64),
            masks=np.asarray([[0b0101]], dtype=np.int64),   # not a prefix
            priorities=np.asarray([0], dtype=np.int64),
            results=np.asarray([0], dtype=np.int64),
            key_bits=4)
        assert table.pruned_index() is None
        # ... and the pruned entry point silently serves the full scan.
        assert table.lookup_encoded(np.asarray([[0b0101]]),
                                    pruned=True).tolist() == [0]


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
            compiled16.forward_int(x, lookup_backend="tcam-pruned"))

    def test_predict_and_scores_backends(self, compiled16):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 256, size=(100, 16))
        np.testing.assert_array_equal(
            compiled16.predict(x), compiled16.predict(x, lookup_backend="tcam-pruned"))
        np.testing.assert_array_equal(
            compiled16.predict_scores(x),
            compiled16.predict_scores(x, lookup_backend="tcam-pruned"))

    def test_empty_batch_supported(self, compiled16):
        out = compiled16.forward_int(np.zeros((0, 16), dtype=np.int64),
                                     lookup_backend="tcam-pruned")
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
        assert LOOKUP_BACKENDS == ("index", "tcam-pruned")

    def test_segment_table_paths_agree(self, compiled16):
        rng = np.random.default_rng(4)
        for layer in compiled16.layers:
            for table in layer.tables:
                lo = -(1 << (table.in_bits - 1)) if table.in_signed else 0
                hi = lo + (1 << table.in_bits) - 1
                d = table.segment[1] - table.segment[0]
                x = rng.integers(lo, hi + 1, size=(200, d))
                np.testing.assert_array_equal(
                    table.lookup(x), table.lookup(x, lookup_backend="tcam-pruned"))
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
        scalar = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), *flows_to_trace(replay_flows))
        index = WindowedClassifierRuntime(
            compiled16, feature_mode="stats",
            batch_size=32).process_flows(replay_flows)
        tcam = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", batch_size=32,
            lookup_backend="tcam-pruned").process_flows(replay_flows)
        assert scalar == list(index) == list(tcam)

    def test_windowed_scalar_path_uses_backend(self, compiled16, replay_flows):
        """One-packet steps through the TCAM backend decide as the oracle,
        which reads the model's arrays whatever backend a replica names."""
        trace, labels = flows_to_trace(replay_flows)
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="stats"), trace, labels)
        tcam = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", lookup_backend="tcam-pruned")
        assert scalar_replay(tcam, trace, labels) == ref
        assert list(tcam.process_trace(trace, labels, batch_size=1)) == ref

    def test_set_lookup_backend_validates(self, compiled16):
        runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats")
        with pytest.raises(ValueError, match="lookup_backend"):
            runtime.set_lookup_backend("sram")
        with pytest.raises(ValueError, match="CompiledModel"):
            WindowedClassifierRuntime(object(), feature_mode="stats",
                                      lookup_backend="tcam-pruned")

    def test_two_stage_rejects_tcam(self):
        """TCAM serving is the windowed runtime's: a two-stage config or
        replica asking for it fails with a ConfigError naming the field."""
        with pytest.raises(ConfigError) as exc:
            EngineConfig(runtime="two_stage", lookup_backend="tcam-pruned")
        assert exc.value.field == "lookup_backend"
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(100, 60)), n_leaves=4)
        slot_values = [rng.integers(-5, 5, size=(4, 3)) for _ in range(8)]
        runtime = TwoStageRuntime(tree, slot_values, n_classes=3)
        runtime.set_lookup_backend("index")
        with pytest.raises(ConfigError) as exc:
            runtime.set_lookup_backend("tcam-pruned")
        assert exc.value.field == "lookup_backend"

    def test_two_stage_tcam_matches_index(self, replay_flows):
        """The two-stage extractor tree is served by its tree walk, but its
        TCAM form (what the resource accounting charges for) still answers
        every packet's raw bytes with the same fuzzy index."""
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
        raw = Trace.from_flows(replay_flows).payload_matrix(60)
        want = tree.predict_index(raw)
        for encoding in ("auto", "pruned"):
            seg = TcamSegment.from_tree(tree, key_bits=8, encoding=encoding)
            np.testing.assert_array_equal(
                seg.lookup_indices(raw, pruned=encoding == "pruned"), want)

    def test_two_stage_rejects_tcam_with_feature_fn(self, replay_flows):
        """A refined feature_fn replica serves on the index path and refuses
        a TCAM backend like every two-stage replica."""
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(100, 60)), n_leaves=4)
        slot_values = [rng.integers(-5, 5, size=(4, 3)) for _ in range(8)]
        runtime = TwoStageRuntime(tree, slot_values, n_classes=3,
                                  feature_fn=lambda x, ipd: x)
        with pytest.raises(ConfigError) as exc:
            runtime.set_lookup_backend("tcam-pruned")
        assert exc.value.field == "lookup_backend"
        assert len(runtime.process_flows(replay_flows)) > 0


class TestDispatcherBackend:
    @staticmethod
    def _factory(compiled16, cached, backend="index"):
        def factory():
            cache = FlowDecisionCache(capacity=4096) if cached else None
            return WindowedClassifierRuntime(
                compiled16, feature_mode="stats", batch_size=32,
                decision_cache=cache, lookup_backend=backend)
        return factory

    @pytest.mark.parametrize("cached", [False, True])
    def test_sharded_tcam_matches_index(self, compiled16, replay_flows,
                                        cached):
        ref = ShardedDispatcher(
            runtime_factory=self._factory(compiled16, cached),
            n_shards=2).serve_flows(replay_flows)
        got = ShardedDispatcher(
            runtime_factory=self._factory(compiled16, cached, "tcam-pruned"),
            n_shards=2).serve_flows(replay_flows)
        assert list(got) == list(ref)
        assert ref

    def test_parallel_tcam_matches_index(self, compiled16, replay_flows):
        """The engine applies the backend worker-side (the TCAM compile
        runs behind each worker's warm-up ping)."""
        ref = ShardedDispatcher(
            runtime_factory=self._factory(compiled16, True),
            n_shards=2).serve_flows(replay_flows)
        with PegasusEngine.from_factory(
                self._factory(compiled16, True), batch_size=32,
                lookup_backend="tcam-pruned", topology="parallel",
                n_workers=2) as engine:
            got = engine.serve(replay_flows).decisions
        assert list(got) == list(ref)

    def test_bad_backend_fails_before_fork(self, compiled16):
        with pytest.raises(ValueError, match="lookup_backend"):
            PegasusEngine.from_factory(
                lambda: WindowedClassifierRuntime(compiled16,
                                                  feature_mode="stats"),
                topology="parallel", n_workers=1, lookup_backend="sram")

    def test_unsupported_replica_fails_worker_start(self):
        """A backend the replica can't serve (valid name, wrong model) still
        surfaces from the warm-up ping with the worker's traceback."""
        engine = PegasusEngine.from_factory(
            lambda: WindowedClassifierRuntime(object(), feature_mode="stats"),
            topology="parallel", n_workers=1, lookup_backend="tcam-pruned")
        with pytest.raises(RuntimeError, match="CompiledModel"):
            engine.start()
        engine.close()
