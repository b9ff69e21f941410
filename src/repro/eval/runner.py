"""Experiment runner: one function per table / figure of the paper's §7.

Every function takes ``flows_per_class`` (dataset size) and ``seed`` so the
benchmarks can run the full-scale versions while tests run quick ones. All
randomness is seeded; results are plain dicts ready for rendering.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.baselines import build_baseline, BASELINE_NAMES
from repro.dataplane import TOFINO2, line_rate_pps
from repro.dataplane.resources import summarize_resources
from repro.dataplane.throughput import GPU_OVER_CPU
from repro.eval.metrics import macro_precision_recall_f1, roc_curve, auc_score
from repro.models import build_model
from repro.models.cnn import CNNL
from repro.net import make_dataset, make_attack_flows, DATASET_NAMES, ATTACK_NAMES
from repro.net.features import dataset_views

CLASSIFIERS = ("Leo", "N3IC", "MLP-B", "BoS", "RNN-B", "CNN-B", "CNN-M", "CNN-L")
PEGASUS_MODELS = ("MLP-B", "RNN-B", "CNN-B", "CNN-M", "CNN-L")


@lru_cache(maxsize=16)
def prepare_dataset(name: str, flows_per_class: int, seed: int):
    """Dataset -> (train/val/test views, n_classes). Cached per config."""
    ds = make_dataset(name, flows_per_class=flows_per_class, seed=seed)
    train, val, test = ds.split(rng=seed)
    return (dataset_views(train), dataset_views(val), dataset_views(test),
            ds.n_classes)


def _build(name: str, n_classes: int, seed: int):
    if name in BASELINE_NAMES:
        return build_baseline(name, n_classes, seed)
    return build_model(name, n_classes, seed)


def train_and_eval_model(model_name: str, dataset: str,
                         flows_per_class: int = 120, seed: int = 0,
                         include_float: bool = False) -> dict:
    """Train one model on one dataset; return PR/RC/F1 on the test split."""
    train_v, _val_v, test_v, n_classes = prepare_dataset(dataset, flows_per_class, seed)
    model = _build(model_name, n_classes, seed)
    model.train(train_v)
    model.compile_dataplane(train_v)
    pred = model.predict_dataplane(test_v)
    pr, rc, f1 = macro_precision_recall_f1(test_v["y"], pred, n_classes)
    row = {
        "model": model_name,
        "dataset": dataset,
        "PR": pr, "RC": rc, "F1": f1,
        "input_bits": model.input_scale_bits(),
        "model_kbits": model.model_size_kbits(),
        "_model": model,
    }
    if include_float:
        pred_f = model.predict_float(test_v)
        row["PR_float"], row["RC_float"], row["F1_float"] = \
            macro_precision_recall_f1(test_v["y"], pred_f, n_classes)
    return row


@lru_cache(maxsize=4)
def run_table5(flows_per_class: int = 120, seed: int = 0,
               models: tuple[str, ...] = CLASSIFIERS,
               datasets: tuple[str, ...] = DATASET_NAMES) -> dict:
    """Table 5: accuracy of every method on every dataset."""
    results: dict = {m: {"rows": {}} for m in models}
    for model_name in models:
        for dataset in datasets:
            row = train_and_eval_model(model_name, dataset, flows_per_class, seed)
            results[model_name]["rows"][dataset] = {
                k: row[k] for k in ("PR", "RC", "F1")}
            results[model_name]["input_bits"] = row["input_bits"]
            results[model_name]["model_kbits"] = row["model_kbits"]
    return results


def _resource_row(model, target=TOFINO2) -> dict:
    """Table-6 row for any trained+compiled model (duck-typed accounting)."""
    layout = model.flow_layout()
    compiled = model.compiled
    from repro.core.mapping import CompiledModel
    if isinstance(compiled, CompiledModel):
        report = summarize_resources(compiled, layout, target)
        return {"model": model.name,
                "bits/flow": report.stateful_bits_per_flow,
                "SRAM": report.sram_fraction,
                "TCAM": report.tcam_fraction,
                "Bus": report.bus_fraction}
    # Custom compiled artifacts (Leo, BoS, RNN-B, CNN-L) expose the
    # accounting methods on the artifact or on the model itself.
    acct = compiled if hasattr(compiled, "sram_bits") else model
    return {"model": model.name,
            "bits/flow": layout.bits_per_flow,
            "SRAM": acct.sram_bits() / target.total_sram_bits,
            "TCAM": acct.tcam_bits() / target.total_tcam_bits,
            "Bus": acct.bus_bits() / target.action_bus_bits}


def run_table6(flows_per_class: int = 120, seed: int = 0,
               dataset: str = "peerrush") -> list[dict]:
    """Table 6: hardware resource utilization per method.

    Like the paper, Leo is sized at 1024 nodes and BoS at hidden size 8; the
    accuracy models reuse their Table-5 configurations.
    """
    rows = []
    for name in ("Leo", "BoS", "MLP-B", "RNN-B", "CNN-B", "CNN-M", "CNN-L",
                 "AutoEncoder"):
        row = train_and_eval_model(name, dataset, flows_per_class, seed) \
            if name != "AutoEncoder" else None
        if name == "AutoEncoder":
            train_v, _v, _t, n_classes = prepare_dataset(dataset, flows_per_class, seed)
            model = build_model("AutoEncoder", n_classes, seed)
            model.train(train_v)
            model.compile_dataplane(train_v)
        else:
            model = row["_model"]
        rows.append(_resource_row(model))
    return rows


def run_fig7(flows_per_class: int = 120, seed: int = 0,
             datasets: tuple[str, ...] = DATASET_NAMES) -> list[dict]:
    """Figure 7: CNN-L accuracy vs per-flow storage (28 / 44 / 72 bits)."""
    variants = [
        {"label": "28b", "idx_bits": 4, "use_ipd": False},
        {"label": "44b", "idx_bits": 4, "use_ipd": True},
        {"label": "72b", "idx_bits": 8, "use_ipd": True},
    ]
    out = []
    for variant in variants:
        entry = {"label": variant["label"], "f1": {}}
        for dataset in datasets:
            train_v, _v, test_v, n_classes = prepare_dataset(
                dataset, flows_per_class, seed)
            model = CNNL(n_classes=n_classes, seed=seed,
                         idx_bits=variant["idx_bits"], use_ipd=variant["use_ipd"])
            model.train(train_v)
            model.compile_dataplane(train_v)
            pred = model.predict_dataplane(test_v)
            _, _, f1 = macro_precision_recall_f1(test_v["y"], pred, n_classes)
            entry["f1"][dataset] = f1
            entry["bits_per_flow"] = model.flow_layout().bits_per_flow
            entry["sram_frac_1m"] = model.flow_layout().sram_fraction(
                1_000_000, TOFINO2.total_sram_bits)
        out.append(entry)
    return out


def run_fig8(flows_per_class: int = 120, seed: int = 0,
             attack_flows: int = 40,
             datasets: tuple[str, ...] = DATASET_NAMES,
             attacks: tuple[str, ...] = ATTACK_NAMES) -> dict:
    """Figure 8: AutoEncoder ROC / AUC against unknown attacks.

    Benign training only; attacks injected into the test set at the paper's
    1:4 attack-to-benign ratio.
    """
    results: dict = {}
    for dataset in datasets:
        train_v, _v, test_v, n_classes = prepare_dataset(dataset, flows_per_class, seed)
        model = build_model("AutoEncoder", n_classes, seed)
        model.train(train_v)
        model.compile_dataplane(train_v)
        benign_scores = model.score_dataplane(test_v)
        n_benign = len(benign_scores)
        per_attack = {}
        for i, attack in enumerate(attacks):
            flows = make_attack_flows(attack, n_flows=attack_flows, seed=seed + i)
            attack_v = dataset_views(flows)
            scores = model.score_dataplane(attack_v)
            # 1:4 mixture: subsample attacks to a quarter of benign count.
            take = min(len(scores), max(n_benign // 4, 1))
            scores = scores[:take]
            labels = np.concatenate([np.zeros(n_benign), np.ones(take)])
            mixed = np.concatenate([benign_scores, scores])
            fpr, tpr = roc_curve(labels, mixed)
            per_attack[attack] = {"auc": auc_score(labels, mixed),
                                  "fpr": fpr, "tpr": tpr}
        results[dataset] = per_attack
    return results


def run_fig9(flows_per_class: int = 120, seed: int = 0,
             models: tuple[str, ...] = PEGASUS_MODELS,
             datasets: tuple[str, ...] = DATASET_NAMES) -> dict:
    """Figure 9: switch vs CPU/GPU accuracy (a-c) and throughput (d)."""
    accuracy: dict = {d: {} for d in datasets}
    throughput: dict = {}
    for model_name in models:
        for dataset in datasets:
            row = train_and_eval_model(model_name, dataset, flows_per_class,
                                       seed, include_float=True)
            accuracy[dataset][model_name] = {
                "pegasus": row["F1"], "float": row["F1_float"]}
            if dataset == datasets[0]:
                model = row["_model"]
                _t, _v, test_v, _n = prepare_dataset(dataset, flows_per_class, seed)
                cpu = _cpu_throughput(model, test_v)
                throughput[model_name] = {
                    "pegasus": line_rate_pps(TOFINO2),
                    "cpu": cpu,
                    "gpu": cpu * GPU_OVER_CPU,
                }
    return {"accuracy": accuracy, "throughput": throughput}


def _cpu_throughput(model, views) -> float:
    """Measured full-precision inference throughput on this host."""
    import time
    model_views = {k: v for k, v in views.items()}
    model.predict_float(model_views)  # warm-up
    start = time.perf_counter()
    model.predict_float(model_views)
    elapsed = time.perf_counter() - start
    return len(views["y"]) / max(elapsed, 1e-9)


def run_table2(table5: dict) -> dict:
    """Table 2: Pegasus's headline ratios versus each prior work."""
    def avg_f1(name):
        rows = table5[name]["rows"]
        return float(np.mean([r["F1"] for r in rows.values()]))

    cnn_l = table5["CNN-L"]
    out = {}
    for prior in ("N3IC", "BoS", "Leo"):
        if prior not in table5:
            continue
        entry = {"accuracy_gain": avg_f1("CNN-L") - avg_f1(prior)}
        if table5[prior].get("model_kbits"):
            entry["model_size_ratio"] = cnn_l["model_kbits"] / table5[prior]["model_kbits"]
        if table5[prior].get("input_bits"):
            entry["input_scale_ratio"] = cnn_l["input_bits"] / table5[prior]["input_bits"]
        out[prior] = entry
    return out
