"""Evaluation harness: metrics, experiment runner, report rendering."""

from repro.eval.metrics import (
    confusion_matrix,
    macro_f1,
    macro_precision_recall_f1,
    roc_curve,
    auc_score,
)
from repro.eval.runner import (
    prepare_dataset,
    train_and_eval_model,
    run_table5,
    run_table6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table2,
)
from repro.eval.reporting import render_table

__all__ = [
    "confusion_matrix",
    "macro_f1",
    "macro_precision_recall_f1",
    "roc_curve",
    "auc_score",
    "prepare_dataset",
    "train_and_eval_model",
    "run_table5",
    "run_table6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table2",
    "render_table",
]
