"""Tests for metrics, the runtimes, and the experiment runner (quick mode)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.eval.metrics import (
    confusion_matrix, macro_f1, macro_precision_recall_f1, roc_curve, auc_score,
)
from repro.eval.reporting import render_table
from repro.eval.runner import run_table2, run_table5
from repro.dataplane.runtime import WindowedClassifierRuntime
from repro.eval.oracle import ScalarOracle
from repro.models import build_model
from repro.net import make_dataset
from repro.net.features import dataset_views
from repro.net.traces import Trace


class TestConfusion:
    def test_perfect(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2])
        np.testing.assert_array_equal(cm, np.eye(3, dtype=int))

    def test_off_diagonal(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1])
        assert cm[0, 1] == 1
        assert cm[1, 1] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1], [0])


class TestMacroF1:
    def test_perfect_is_one(self):
        assert macro_f1([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_all_wrong_is_zero(self):
        assert macro_f1([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0

    def test_macro_weights_classes_equally(self):
        # 90 correct of class 0, 0 of 10 class-1 samples.
        y_true = [0] * 90 + [1] * 10
        y_pred = [0] * 100
        _, rc, f1 = macro_precision_recall_f1(y_true, y_pred)
        assert rc == pytest.approx(0.5)  # (1.0 + 0.0) / 2
        assert f1 < 0.6

    def test_absent_class_ignored(self):
        f1 = macro_f1([0, 0], [0, 0], n_classes=3)
        assert f1 == 1.0


class TestROC:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(labels, scores) == 1.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=2000)
        scores = rng.random(2000)
        assert abs(auc_score(labels, scores) - 0.5) < 0.05

    def test_inverted_scores(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 0.0

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=100)
        scores = rng.random(100)
        fpr, tpr = roc_curve(labels, scores)
        assert (np.diff(fpr) >= 0).all()
        assert (np.diff(tpr) >= 0).all()

    def test_single_class_raises(self):
        with pytest.raises(ShapeError):
            roc_curve(np.zeros(5), np.random.default_rng(0).random(5))


class TestRendering:
    def test_render_table(self):
        out = render_table(["a", "bb"], [[1, 0.5], [22, 0.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "0.5000" in out
        assert "22" in out


class TestWindowedRuntime:
    def test_end_to_end_accuracy(self):
        ds = make_dataset("peerrush", flows_per_class=40, seed=0)
        train, _val, test = ds.split(rng=0)
        views = dataset_views(train)
        model = build_model("MLP-B", ds.n_classes, seed=0)
        model.train(views)
        model.compile_dataplane(views)
        runtime = WindowedClassifierRuntime(model.compiled, feature_mode="stats")
        decisions = runtime.process_flows(test)
        assert decisions
        acc = np.mean([d.predicted == d.flow_label for d in decisions])
        assert acc > 0.5

    def test_no_decision_before_window(self):
        ds = make_dataset("peerrush", flows_per_class=2, seed=0)
        flow = ds.flows[0]
        views = dataset_views(ds.flows)
        model = build_model("MLP-B", ds.n_classes, seed=0)
        model.train(views)
        model.compile_dataplane(views)
        runtime = WindowedClassifierRuntime(model.compiled, feature_mode="stats")
        trace = Trace(flow.packets[:8])
        labels = np.zeros(8, dtype=np.int64)
        ref = ScalarOracle.of(runtime).replay(trace, labels)
        # The eighth packet completes the window; the seven before it wait.
        assert [d.seq for d in ref] == [7]
        assert list(runtime.process_trace(trace, labels)) == ref

    def test_bits_per_flow(self):
        ds = make_dataset("peerrush", flows_per_class=2, seed=0)
        views = dataset_views(ds.flows)
        model = build_model("MLP-B", ds.n_classes, seed=0)
        model.train(views)
        model.compile_dataplane(views)
        runtime = WindowedClassifierRuntime(model.compiled, window=8)
        assert runtime.bits_per_flow == 16 + 8 + 7 * 8 + 7 * 8


class TestRunnerQuick:
    def test_table5_and_table2_quick(self):
        table5 = run_table5(flows_per_class=25, seed=0,
                            models=("Leo", "N3IC", "CNN-L"),
                            datasets=("peerrush",))
        assert set(table5) == {"Leo", "N3IC", "CNN-L"}
        for entry in table5.values():
            f1 = entry["rows"]["peerrush"]["F1"]
            assert 0.0 <= f1 <= 1.0
        table2 = run_table2(table5)
        assert "N3IC" in table2
        assert table2["N3IC"]["input_scale_ratio"] == pytest.approx(3840 / 128)
        # CNN-L (full precision, raw bytes) beats the binary MLP.
        assert table2["N3IC"]["accuracy_gain"] > 0
