"""End-to-end compiler tests, including centroid refinement."""

import numpy as np
import pytest

from repro import nn
from repro.errors import CompilationError
from repro.core import (
    PegasusCompiler, CompilerConfig, even_partition,
    refine_values_least_squares, SoftTreeFineTuner, materialize,
    MaterializeConfig,
)
from repro.core.primitives import Affine, MapStep, PrimitiveProgram, SumReduceStep


def _train_toy_mlp(seed=0, n=800, d=8, classes=3):
    """A small trained MLP on separable uint8 data."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(40, 215, size=(classes, d))
    y = rng.integers(0, classes, size=n)
    x = np.clip(centers[y] + rng.normal(0, 18, size=(n, d)), 0, 255)
    x_int = np.floor(x).astype(np.int64)
    model = nn.Sequential(
        nn.BatchNorm1d(d),
        nn.Linear(d, 16, rng=0),
        nn.ReLU(),
        nn.BatchNorm1d(16),
        nn.Linear(16, classes, rng=1),
    )
    nn.fit(model, x_int.astype(np.float64), y, nn.CrossEntropyLoss(),
           nn.Adam(model.parameters(), lr=0.01), epochs=30, batch_size=64, rng=0)
    return model, x_int, y


class TestCompileSequential:
    def test_compiled_accuracy_close_to_float(self):
        model, x, y = _train_toy_mlp()
        float_acc = (nn.predict_classes(model, x.astype(np.float64)) == y).mean()
        compiler = PegasusCompiler(CompilerConfig(fuzzy_leaves=64))
        result = compiler.compile_sequential(model, x)
        int_acc = (result.compiled.predict(x) == y).mean()
        assert float_acc > 0.9
        assert int_acc > float_acc - 0.05

    def test_fusion_reduces_lookup_rounds(self):
        model, x, _ = _train_toy_mlp()
        result = PegasusCompiler(CompilerConfig()).compile_sequential(model, x)
        assert result.initial_lookup_rounds == 5
        assert result.fused_lookup_rounds == 2
        assert result.lookups_saved == 3

    def test_fusion_none_keeps_rounds(self):
        model, x, _ = _train_toy_mlp()
        cfg = CompilerConfig(fusion="none", act_bits=8)
        result = PegasusCompiler(cfg).compile_sequential(model, x)
        assert result.fused_lookup_rounds == 5

    def test_linearized_single_round(self):
        model, x, _ = _train_toy_mlp()
        result = PegasusCompiler(CompilerConfig(fusion="linearized")).compile_sequential(model, x)
        assert result.compiled.num_lookup_rounds == 1

    def test_linearized_loses_accuracy_vs_basic(self):
        model, x, y = _train_toy_mlp()
        basic = PegasusCompiler(CompilerConfig(fuzzy_leaves=64)).compile_sequential(model, x)
        linear = PegasusCompiler(
            CompilerConfig(fusion="linearized", fuzzy_leaves=64)).compile_sequential(model, x)
        acc_basic = (basic.compiled.predict(x) == y).mean()
        acc_linear = (linear.compiled.predict(x) == y).mean()
        assert acc_basic >= acc_linear - 0.02  # linearization never helps much

    def test_unknown_fusion_level(self):
        model, x, _ = _train_toy_mlp()
        with pytest.raises(CompilationError):
            PegasusCompiler(CompilerConfig(fusion="maximal")).compile_sequential(model, x)


class TestCompileAdditive:
    def test_additive_single_round(self):
        rng = np.random.default_rng(1)
        x = np.floor(rng.uniform(0, 255, size=(500, 8))).astype(np.int64)
        partition = even_partition(8, 2)
        w = [rng.normal(size=(2, 3)) * 0.05 for _ in partition]

        def make_fn(wi):
            return lambda seg: np.tanh(seg @ wi)

        result = PegasusCompiler(CompilerConfig(fuzzy_leaves=32)).compile_additive(
            partition, [make_fn(wi) for wi in w], out_dim=3, calib_int=x)
        assert result.compiled.num_lookup_rounds == 1
        assert result.compiled.num_tables == len(partition)

    def test_additive_approximates_function(self):
        rng = np.random.default_rng(2)
        x = np.floor(rng.uniform(0, 255, size=(800, 4))).astype(np.int64)
        partition = even_partition(4, 2)

        def f0(seg):
            return np.tanh(seg @ np.array([[0.02], [-0.01]]))

        def f1(seg):
            return np.tanh(seg @ np.array([[0.015], [0.01]]) - 2.0)

        result = PegasusCompiler(CompilerConfig(fuzzy_leaves=64)).compile_additive(
            partition, [f0, f1], out_dim=1, calib_int=x)
        want = f0(x[:, :2].astype(float)) + f1(x[:, 2:].astype(float))
        got = result.compiled.predict_scores(x)
        assert np.abs(got - want).mean() < 0.1


class TestRefinement:
    def _materialized_matmul(self, leaves=8):
        rng = np.random.default_rng(3)
        d_in, d_out = 6, 2
        w = rng.normal(size=(d_in, d_out)) * 0.05
        partition = even_partition(d_in, 2)
        fns = [Affine(w[s:e], np.zeros(d_out)) for s, e in partition]
        program = PrimitiveProgram(
            input_dim=d_in,
            steps=[MapStep(partition, fns), SumReduceStep(len(partition), d_out)])
        x = np.floor(rng.uniform(0, 255, size=(500, d_in))).astype(np.int64)
        model = materialize(program, x, MaterializeConfig(fuzzy_leaves=leaves))
        targets = x.astype(np.float64) @ w
        return model, x, targets

    def _mean_err(self, model, x, targets):
        return float(np.abs(model.predict_scores(x) - targets).mean())

    def test_least_squares_reduces_error(self):
        model, x, targets = self._materialized_matmul()
        before = self._mean_err(model, x, targets)
        refine_values_least_squares(model.layers[0], x, targets)
        after = self._mean_err(model, x, targets)
        assert after <= before + 1e-9

    def test_least_squares_requires_sumreduce(self):
        model, x, targets = self._materialized_matmul()
        model.layers[0].sum_reduce = False
        with pytest.raises(CompilationError):
            refine_values_least_squares(model.layers[0], x, targets)

    def test_soft_tree_tuner_reduces_loss(self):
        model, x, targets = self._materialized_matmul(leaves=4)
        tuner = SoftTreeFineTuner(model.layers[0], lr_values=0.05, lr_thresholds=0.2)
        losses = tuner.fit(x, targets, epochs=15, tune_thresholds=True)
        assert losses[-1] < losses[0]

    def test_soft_tree_values_only(self):
        model, x, targets = self._materialized_matmul(leaves=4)
        before = self._mean_err(model, x, targets)
        tuner = SoftTreeFineTuner(model.layers[0], lr_values=0.05)
        tuner.fit(x, targets, epochs=20, tune_thresholds=False)
        after = self._mean_err(model, x, targets)
        assert after < before * 1.5  # must not blow up; usually improves

    def test_moved_thresholds_reach_every_compiled_form(self):
        """Regression: fine-tuning moves thresholds in place, so the TCAM
        entries and the certificate boxes compiled from the old thresholds
        must not survive it. After the fit the tree, both TCAM kernels and
        the leaf boxes agree on every integer key of each 2-D table."""
        model, x, targets = self._materialized_matmul(leaves=8)
        layer = model.layers[0]
        before = [t.tree.threshold.copy() for t in layer.tables]
        for table in layer.tables:          # warm every form on the old thresholds
            table.tcam_indices(x[:4, :2])
            table.tcam_indices(x[:4, :2], pruned=True)
            table.leaf_box_arrays()
        SoftTreeFineTuner(layer, lr_values=0.05, lr_thresholds=0.2).fit(
            x, targets, epochs=15, tune_thresholds=True)
        assert any(not np.array_equal(t.tree.threshold, b)
                   for t, b in zip(layer.tables, before))   # premise: they moved
        keys = np.stack(np.meshgrid(np.arange(256), np.arange(256)), -1).reshape(-1, 2)
        for table in layer.tables:
            want = table.tree.predict_index(keys)
            np.testing.assert_array_equal(table.tcam_indices(keys), want)
            np.testing.assert_array_equal(table.tcam_indices(keys, pruned=True), want)
            lo, hi = table.leaf_box_arrays()
            assert ((lo[want] <= keys) & (keys <= hi[want])).all()
            cells = np.where((lo <= hi).all(axis=1),
                             (hi - lo + 1).prod(axis=1), 0)
            assert cells.sum() == len(keys)     # the boxes tile the domain
