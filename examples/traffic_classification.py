"""Encrypted-traffic classification with CNN-L on raw packet bytes.

The paper's headline workload: a 3840-bit raw-byte input that no prior IDP
system can carry. CNN-L's per-packet subnet compresses each arriving packet
into a 4-bit fuzzy index (Advanced Primitive Fusion + flow scalability), so
classifying a window of 8 packets needs only 44 bits of per-flow state.

Run:  python examples/traffic_classification.py [dataset]
"""

import sys

import numpy as np

from repro.eval.metrics import macro_precision_recall_f1
from repro.models.cnn import CNNL
from repro.net import make_dataset
from repro.net.features import dataset_views


def main(dataset_name: str = "iscxvpn"):
    print(f"=== CNN-L on {dataset_name} (raw bytes, 3840-bit input scale) ===")
    dataset = make_dataset(dataset_name, flows_per_class=100, seed=0)
    train_flows, _val, test_flows = dataset.split(rng=0)
    train_views = dataset_views(train_flows)
    test_views = dataset_views(test_flows)

    model = CNNL(n_classes=dataset.n_classes, seed=0, idx_bits=4, use_ipd=True)
    print(f"model size: {model.model_size_kbits():.0f} Kb, "
          f"input scale: {model.input_scale_bits()} bits")
    model.train(train_views)
    model.compile_dataplane(train_views)

    pred = model.predict_dataplane(test_views)
    pr, rc, f1 = macro_precision_recall_f1(test_views["y"], pred, dataset.n_classes)
    print(f"dataplane  PR={pr:.4f} RC={rc:.4f} F1={f1:.4f}")
    pred_f = model.predict_float(test_views)
    _, _, f1_float = macro_precision_recall_f1(test_views["y"], pred_f,
                                               dataset.n_classes)
    print(f"float      F1={f1_float:.4f} (switch loss {f1_float - f1:+.4f})")

    print("\nper-class F1 on the switch:")
    for label, name in enumerate(dataset.class_names):
        mask = test_views["y"] == label
        correct = (pred[mask] == label).mean() if mask.any() else float("nan")
        print(f"  {name:10s} recall={correct:.3f}")

    print("\n=== packet-level runtime (44 bits of flow state) ===")
    runtime = model.make_runtime()
    decisions = runtime.process_flows(test_flows)
    acc = np.mean(decisions.predicted == decisions.flow_label)
    print(f"{len(decisions)} decisions, accuracy {acc:.3f}, "
          f"{runtime.bits_per_flow} bits/flow, "
          f"{len(runtime.state)} concurrent flows tracked")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "iscxvpn")
