"""Tests for table materialization and the integer-domain compiled model."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.errors import CompilationError, ShapeError
from repro.core import (
    Affine, MapStep, PrimitiveProgram, SumReduceStep,
    MaterializeConfig, materialize, even_partition, fuse_basic, lower_sequential,
    refine_values_least_squares, SoftTreeFineTuner,
)
from repro.core.fuzzy import FuzzyTree, key_domain
from repro.core.mapping import LookupLayer, SegmentTable
from repro.utils.fixed_point import QFormat


def _uint8_calib(n=400, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return np.floor(rng.uniform(0, 255, size=(n, d))).astype(np.int64)


def _simple_matmul_program(d_in=8, d_out=3, seg=2, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d_in, d_out)) * 0.05
    b = rng.normal(size=d_out)
    partition = even_partition(d_in, seg)
    fns = [Affine(w[s:e], b / len(partition)) for s, e in partition]
    program = PrimitiveProgram(
        input_dim=d_in,
        steps=[MapStep(partition, fns), SumReduceStep(len(partition), d_out)])
    return program, w, b


class TestMaterializeMatMul:
    def test_output_close_to_float(self):
        program, w, b = _simple_matmul_program()
        calib = _uint8_calib()
        model = materialize(program, calib, MaterializeConfig(fuzzy_leaves=64))
        scores = model.predict_scores(calib[:50])
        want = calib[:50].astype(np.float64) @ w + b
        err = np.abs(scores - want).mean()
        scale = np.abs(want).mean()
        assert err < 0.15 * scale

    def test_more_leaves_less_error(self):
        program, w, b = _simple_matmul_program()
        calib = _uint8_calib()
        want = calib.astype(np.float64) @ w + b
        errs = []
        for leaves in (2, 8, 32, 128):
            model = materialize(program, calib, MaterializeConfig(fuzzy_leaves=leaves))
            errs.append(np.abs(model.predict_scores(calib) - want).mean())
        assert errs[0] > errs[-1]
        assert all(a >= b * 0.8 for a, b in zip(errs, errs[1:]))  # roughly monotone

    def test_integer_only_outputs(self):
        program, *_ = _simple_matmul_program()
        calib = _uint8_calib()
        model = materialize(program, calib)
        out = model.forward_int(calib[:10])
        assert out.dtype == np.int64

    def test_input_dim_checked(self):
        program, *_ = _simple_matmul_program()
        model = materialize(program, _uint8_calib())
        with pytest.raises(ShapeError):
            model.forward_int(np.zeros((3, 5), dtype=np.int64))

    def test_bad_calibration_shape(self):
        program, *_ = _simple_matmul_program()
        with pytest.raises(ShapeError):
            materialize(program, _uint8_calib(d=5))

    def test_leading_sumreduce_rejected(self):
        program = PrimitiveProgram(input_dim=4, steps=[SumReduceStep(2, 2)])
        with pytest.raises(CompilationError):
            materialize(program, _uint8_calib(d=4))


class TestExactTables:
    def test_single_unit_segments_use_exact(self):
        d = 4
        program = PrimitiveProgram(
            input_dim=d,
            steps=[MapStep([(i, i + 1) for i in range(d)],
                           [Affine(np.array([[0.5]]), np.array([0.0]))] * d),
                   SumReduceStep(d, 1)])
        model = materialize(program, _uint8_calib(d=d))
        assert all(t.kind == "exact" for t in model.layers[0].tables)
        assert all(t.n_entries == 256 for t in model.layers[0].tables)

    def test_exact_table_is_exact(self):
        """Exact tables reproduce f at every representable input."""
        d = 2
        program = PrimitiveProgram(
            input_dim=d,
            steps=[MapStep([(0, 1), (1, 2)],
                           [Affine(np.array([[2.0]]), np.array([1.0])),
                            Affine(np.array([[-1.0]]), np.array([0.0]))]),
                   SumReduceStep(2, 1)])
        model = materialize(program, _uint8_calib(d=d))
        x = np.array([[0, 0], [255, 255], [7, 200]], dtype=np.int64)
        want = 2.0 * x[:, :1] + 1.0 - x[:, 1:]
        got = model.predict_scores(x)
        np.testing.assert_allclose(got, want, atol=2 * model.out_format.resolution)

    def test_multi_unit_segments_use_fuzzy(self):
        program, *_ = _simple_matmul_program(seg=2)
        model = materialize(program, _uint8_calib())
        assert all(t.kind == "fuzzy" for t in model.layers[0].tables)


class TestFuzzyIndices:
    def _fuzzy_table(self):
        program, _w, _b = _simple_matmul_program()
        model = materialize(program, _uint8_calib(),
                            MaterializeConfig(fuzzy_leaves=8))
        for layer in model.layers:
            for table in layer.tables:
                if table.kind == "fuzzy":
                    return table
        raise AssertionError("expected at least one fuzzy table")

    def test_out_of_calibration_range_agrees_with_tree(self):
        """Inputs below 0 / above 255 (outside the uint8 calibration range)
        must route exactly where the tree walk routes them — fuzzy_indices
        is a thin view of predict_index, with no hidden clipping."""
        table = self._fuzzy_table()
        d = table.segment[1] - table.segment[0]
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.integers(-500, 0, size=(100, d)),        # below range
            rng.integers(256, 1000, size=(100, d)),      # above range
            rng.integers(-50, 300, size=(100, d)),       # straddling
        ])
        np.testing.assert_array_equal(table.fuzzy_indices(x),
                                      table.tree.predict_index(x))
        # Domain corners and just-outside singles.
        for v in (-1, 0, 255, 256, 10_000, -10_000):
            row = np.full((1, d), v)
            assert table.fuzzy_indices(row)[0] == \
                int(table.tree.predict_index(row.astype(np.float64))[0])
        # Indices stay valid rows of the value table even out of range.
        assert int(table.fuzzy_indices(x).max()) < table.n_entries

    def test_exact_table_rejects_fuzzy_indices(self):
        program, _w, _b = _simple_matmul_program(seg=1)
        model = materialize(program, _uint8_calib(),
                            MaterializeConfig())
        table = model.layers[0].tables[0]
        assert table.kind == "exact"
        with pytest.raises(CompilationError):
            table.fuzzy_indices(np.zeros((1, 1)))


class TestMultiLayer:
    def _two_layer_model(self):
        model = nn.Sequential(
            nn.Linear(8, 6, rng=0),
            nn.ReLU(),
            nn.Linear(6, 3, rng=1),
        )
        # Scale weights down so uint8 inputs stay in sane ranges.
        for p in model.parameters():
            p.data *= 0.1
        model.eval_mode()
        return model

    def test_two_lookup_rounds_after_fusion(self):
        model = self._two_layer_model()
        program = fuse_basic(lower_sequential(model, input_dim=8, input_segment_dim=2))
        calib = _uint8_calib()
        compiled = materialize(program, calib, MaterializeConfig(fuzzy_leaves=64))
        assert compiled.num_lookup_rounds == 2

    def test_predictions_track_float_model(self):
        model = self._two_layer_model()
        program = fuse_basic(lower_sequential(model, input_dim=8, input_segment_dim=2))
        calib = _uint8_calib(n=600)
        compiled = materialize(program, calib, MaterializeConfig(fuzzy_leaves=128))
        want = np.argmax(model.forward(calib.astype(np.float64)), axis=1)
        got = compiled.predict(calib)
        agreement = (got == want).mean()
        assert agreement > 0.8

    def test_resource_accounting_positive(self):
        model = self._two_layer_model()
        program = fuse_basic(lower_sequential(model, input_dim=8, input_segment_dim=2))
        compiled = materialize(program, _uint8_calib())
        assert compiled.sram_bits() > 0
        assert compiled.tcam_bits() > 0
        assert compiled.bus_bits() > 0
        assert compiled.num_tables == sum(layer.n_lookups for layer in compiled.layers)


def _grid_table(rng, d, bits, signed, start=0, leaves=16, out_dim=3):
    """A fuzzy table over a ``d * bits``-bit key domain, tree fitted on
    in-domain integers (so every threshold lies inside the domain)."""
    lo, hi = key_domain(bits, signed)
    tree = FuzzyTree.fit(rng.integers(lo, hi + 1, size=(300, d)).astype(float),
                         n_leaves=leaves)
    return SegmentTable(
        segment=(start, start + d), kind="fuzzy",
        values_int=rng.integers(-40, 40, size=(tree.n_leaves, out_dim)),
        out_format=QFormat(8, 0, signed=True), in_bits=bits, in_signed=signed,
        tree=tree)


def _probes(rng, lo, hi, d, n=400):
    """Keys inside, straddling and far outside the domain ``[lo, hi]``."""
    span = hi - lo + 1
    return np.concatenate([
        rng.integers(lo, hi + 1, size=(n, d)),
        rng.integers(lo - span // 4, hi + span // 4 + 1, size=(n, d)),
        rng.integers(lo - 50 * span, hi + 50 * span, size=(n, d)),
        np.array([[lo] * d, [hi] * d, [lo - 1] * d, [hi + 1] * d]),
    ])


def _walk_forward(layer, x):
    """``LookupLayer.forward_int`` with every fuzzy table walking its tree."""
    outs = [t.values_int[t.tree.predict_index(x[:, t.segment[0]:t.segment[1]])]
            if t.kind == "fuzzy" else t.lookup(x[:, t.segment[0]:t.segment[1]])
            for t in layer.tables]
    if not layer.sum_reduce:
        return np.concatenate(outs, axis=1)
    return np.clip(sum(outs), layer.out_format.int_min, layer.out_format.int_max)


class TestLeafGrid:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("d,bits", [(1, 4), (1, 8), (1, 16), (2, 4), (2, 8)])
    def test_grid_equals_tree_walk(self, d, bits, signed):
        rng = np.random.default_rng(1000 * d + 10 * bits + signed)
        table = _grid_table(rng, d, bits, signed)
        lo, hi = key_domain(bits, signed)
        assert table._grid is not None
        assert table._grid.shape == ((hi - lo + 1) ** d,)
        assert table._grid.dtype == np.uint8
        x = _probes(rng, lo, hi, d)
        got = table.fuzzy_indices(x)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, table.tree.predict_index(x))
        np.testing.assert_array_equal(
            table.lookup(x), table.values_int[table.tree.predict_index(x)])

    def test_grid_covers_the_whole_domain(self):
        table = _grid_table(np.random.default_rng(5), 2, 8, True)
        keys = np.stack(np.meshgrid(np.arange(-128, 128), np.arange(-128, 128),
                                    indexing="ij"), -1).reshape(-1, 2)
        np.testing.assert_array_equal(table._grid,
                                      table.tree.predict_index(keys))

    def test_wide_leaf_counts_use_uint16(self):
        table = _grid_table(np.random.default_rng(6), 2, 8, False, leaves=300)
        assert table.tree.n_leaves > 256 and table._grid.dtype == np.uint16
        x = _probes(np.random.default_rng(7), 0, 255, 2)
        np.testing.assert_array_equal(table.fuzzy_indices(x),
                                      table.tree.predict_index(x))

    def test_domains_over_16_bits_keep_the_tree_walk(self):
        rng = np.random.default_rng(8)
        assert _grid_table(rng, 3, 8, False)._grid is None
        assert _grid_table(rng, 2, 9, False)._grid is None
        assert _grid_table(rng, 4, 4, False)._grid is not None

    def test_thresholds_on_or_beyond_the_domain_edge_fall_back(self):
        """Clamping keeps the leaf only while ``lo <= t < hi`` for every
        threshold; a table that breaks this walks its tree — and still
        answers out-of-domain keys like the tree does."""
        rng = np.random.default_rng(9)
        table = _grid_table(rng, 2, 8, False)
        x = _probes(rng, 0, 255, 2)
        inside = table.tree.threshold[:table.tree.n_internal].copy()
        for edge, has_grid in ((0, True), (254, True), (254.5, True),
                               (255, False), (300, False), (-1, False),
                               (-0.5, False)):
            moved = inside.copy()
            moved[0] = edge
            table.set_thresholds(moved)
            assert (table._grid is not None) == has_grid, edge
            np.testing.assert_array_equal(table.fuzzy_indices(x),
                                          table.tree.predict_index(x))
        table.set_thresholds(inside)
        assert table._grid is not None

    def test_float_inputs_walk_the_tree(self, monkeypatch):
        rng = np.random.default_rng(10)
        table = _grid_table(rng, 2, 8, False)
        walked = []
        walk = FuzzyTree.predict_index
        monkeypatch.setattr(FuzzyTree, "predict_index",
                            lambda self, x: walked.append(1) or walk(self, x))
        x = rng.uniform(-20, 280, size=(500, 2))
        got = table.fuzzy_indices(x)
        assert walked == [1]
        np.testing.assert_array_equal(got, walk(table.tree, x))
        # A fractional key routes by its own value, not by its floor.
        t = float(table.tree.threshold[0])
        probe = np.full((1, 2), t + 0.5)
        assert table.fuzzy_indices(probe)[0] == walk(table.tree, probe)[0]
        assert table.fuzzy_indices(probe)[0] != \
            table.fuzzy_indices(np.floor(probe).astype(np.int64))[0]
        table.fuzzy_indices(x.astype(np.int64))
        assert walked == [1] * 3        # integer keys never walk

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint32])
    def test_narrow_integer_dtypes(self, dtype):
        rng = np.random.default_rng(11)
        table = _grid_table(rng, 2, 8, True)      # signed domain, lo = -128
        info = np.iinfo(dtype)
        x = rng.integers(max(info.min, -1000), min(info.max, 1000) + 1,
                         size=(300, 2)).astype(dtype)
        np.testing.assert_array_equal(table.fuzzy_indices(x),
                                      table.tree.predict_index(x))

    def test_set_thresholds_rebuilds_grid_and_layer_plan(self):
        rng = np.random.default_rng(12)
        tables = [_grid_table(rng, 2, 8, False, start=2 * k) for k in range(3)]
        layer = LookupLayer(tables=tables, sum_reduce=True,
                            out_format=QFormat(8, 0, signed=True))
        x = _probes(rng, 0, 255, 6)
        np.testing.assert_array_equal(layer.forward_int(x),
                                      _walk_forward(layer, x))
        before = layer.forward_int(x)
        t = tables[1]
        old_grid = t._grid
        t.set_thresholds(np.clip(
            t.tree.threshold[:t.tree.n_internal][::-1] + 7, 0, 254))
        assert t._grid is not old_grid
        np.testing.assert_array_equal(t.fuzzy_indices(x[:, 2:4]),
                                      t.tree.predict_index(x[:, 2:4]))
        after = layer.forward_int(x)
        np.testing.assert_array_equal(after, _walk_forward(layer, x))
        assert not np.array_equal(before, after)    # premise: leaves moved
        # A table pushed out of the domain leaves the fused gather.
        t.set_thresholds(np.full(t.tree.n_internal, 400.0))
        assert t._grid is None
        np.testing.assert_array_equal(layer.forward_int(x),
                                      _walk_forward(layer, x))

    def test_fine_tuned_values_and_thresholds_reach_forward_int(self):
        """`finetune` reassigns ``values_int`` and moves thresholds; the
        fused layer forward must serve the new ones."""
        rng = np.random.default_rng(13)
        w = rng.normal(size=(6, 2)) * 0.05
        partition = even_partition(6, 2)
        program = PrimitiveProgram(
            input_dim=6,
            steps=[MapStep(partition, [Affine(w[s:e], np.zeros(2))
                                       for s, e in partition]),
                   SumReduceStep(3, 2)])
        x = np.floor(rng.uniform(0, 255, size=(500, 6))).astype(np.int64)
        model = materialize(program, x, MaterializeConfig(fuzzy_leaves=8))
        layer = model.layers[0]
        assert all(t._grid is not None for t in layer.tables)
        targets = x.astype(np.float64) @ w + 3.0    # offset: values must move
        probes = _probes(rng, 0, 255, 6)

        old = [t.values_int for t in layer.tables]
        refine_values_least_squares(layer, x, targets)
        assert all(t.values_int is not v for t, v in zip(layer.tables, old))
        np.testing.assert_array_equal(layer.forward_int(probes),
                                      _walk_forward(layer, probes))

        before = [t.tree.threshold.copy() for t in layer.tables]
        SoftTreeFineTuner(layer, lr_values=0.05, lr_thresholds=0.2).fit(
            x, targets, epochs=10, tune_thresholds=True)
        assert any(not np.array_equal(t.tree.threshold, b)
                   for t, b in zip(layer.tables, before))
        np.testing.assert_array_equal(layer.forward_int(probes),
                                      _walk_forward(layer, probes))
        np.testing.assert_array_equal(model.forward_int(probes),
                                      _walk_forward(layer, probes))

    @pytest.mark.parametrize("sum_reduce", [True, False])
    def test_mixed_layer(self, sum_reduce):
        """Grid tables of different shapes, a fuzzy table that walks and an
        exact table in one layer: each is answered its own way."""
        rng = np.random.default_rng(14)
        fmt = QFormat(8, 0, signed=True)
        tables = [
            _grid_table(rng, 2, 8, False, start=0),
            SegmentTable(segment=(2, 3), kind="exact",
                         values_int=rng.integers(-40, 40, size=(256, 3)),
                         out_format=fmt, in_bits=8, exact_lo=0),
            _grid_table(rng, 1, 8, True, start=3),
            _grid_table(rng, 3, 8, False, start=4),       # 24 bits: walks
            _grid_table(rng, 2, 4, True, start=7),
            _grid_table(rng, 1, 16, False, start=9, leaves=40),
        ]
        layer = LookupLayer(tables=tables, sum_reduce=sum_reduce,
                            out_format=fmt)
        assert [g is not None for g in layer._plan.grids] == \
            [True, False, True, False, True, True]
        x = rng.integers(-300, 70_000, size=(600, 10))
        x[:200] = rng.integers(-10, 270, size=(200, 10))
        want = _walk_forward(layer, x)
        np.testing.assert_array_equal(layer.forward_int(x), want)
        for backend in ("tcam", "tcam-pruned"):
            np.testing.assert_array_equal(
                layer.forward_int(np.clip(x, 0, 255), lookup_backend=backend),
                _walk_forward(layer, np.clip(x, 0, 255)))
        np.testing.assert_array_equal(          # float input: nothing fused
            layer.forward_int(x.astype(np.float64)), want)
        assert layer.forward_int(x[:0]).shape == (0, layer.out_dim)
        # Tables replaced behind the layer's back are picked up too.
        layer.tables[0] = _grid_table(rng, 2, 8, False, start=0)
        np.testing.assert_array_equal(layer.forward_int(x),
                                      _walk_forward(layer, x))

    def test_pickle_round_trip_keeps_the_grid(self):
        program, *_ = _simple_matmul_program()
        calib = _uint8_calib()
        model = materialize(program, calib)
        back = pickle.loads(pickle.dumps(model))
        for t, b in zip(model.layers[0].tables, back.layers[0].tables):
            assert b._grid is not None
            np.testing.assert_array_equal(b._grid, t._grid)
        assert not back.layers[0]._plan.stale(back.layers[0].tables)
        x = _probes(np.random.default_rng(15), 0, 255, 8)
        np.testing.assert_array_equal(back.forward_int(x), model.forward_int(x))
        np.testing.assert_array_equal(back.predict(x), model.predict(x))
