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


def _serving_mix(dataset: str, flows_per_class: int, seed: int,
                 attack_flows: int, elephant_flows: int = 0,
                 elephant_packets: int = 400) -> tuple[list, object]:
    """The Figure-8 serving workload plus a compiled MLP-B to serve it with.

    Benign test split + every unknown-attack flow set, shared by the batched
    and parallel throughput studies so their numbers are comparable.
    ``elephant_flows`` additionally injects constant-rate heavy hitters
    (fixed packet length, fixed inter-packet delay — flood/stream-shaped
    traffic): their feature windows repeat packet after packet, which is the
    case the flow-decision cache short-circuits.
    """
    from repro.net.flow import Flow
    from repro.net.packet import FlowKey, Packet

    row = train_and_eval_model("MLP-B", dataset, flows_per_class, seed)
    compiled = row["_model"].compiled
    ds = make_dataset(dataset, flows_per_class=flows_per_class, seed=seed)
    _train, _val, test_flows = ds.split(rng=seed)
    flows = list(test_flows)
    for i, attack in enumerate(ATTACK_NAMES):
        flows.extend(make_attack_flows(attack, n_flows=attack_flows, seed=seed + i))
    for e in range(elephant_flows):
        key = FlowKey(0xC0A80000 + e, 0x08080808, 50000 + e, 443, 6)
        ipd = 0.00064 * (1 + e % 3)        # exact 64 us multiples: stable IPDs
        length = 1200 - 100 * (e % 4)
        packets = [Packet(ts=i * ipd, length=length, key=key)
                   for i in range(elephant_packets)]
        flows.append(Flow(key=key.canonical(), packets=packets, label=0))
    return flows, compiled


def run_batched_throughput(flows_per_class: int = 120, seed: int = 0,
                           batch_sizes: tuple[int, ...] = (1, 32, 256, 1024),
                           shard_counts: tuple[int, ...] = (1, 4),
                           dataset: str = "peerrush",
                           attack_flows: int = 30,
                           repeats: int = 2) -> dict:
    """Software-dataplane packets/sec of the batched runtime (serving study).

    Replays the Figure-8 serving mix — the benign test split plus every
    unknown-attack flow set — through a ``local``-topology
    :class:`~repro.serving.PegasusEngine` at several batch sizes, then
    through the ``sharded`` topology at several shard counts (batch 256,
    flush on batch-full; a trace-time timeout would trade latency for
    amortization). Each measurement rebuilds a fresh engine so flow state
    starts cold; best of ``repeats`` runs. Returns per-config pps plus
    ``speedup_256_vs_1``, the tentpole's batching win, and
    ``small_batch_efficiency = pps[32] / pps[256]``: the share of that win
    a latency-sized batch keeps (fixed per-call cost pulls it down).
    """
    from repro.serving import EngineConfig, PegasusEngine

    flows, compiled = _serving_mix(dataset, flows_per_class, seed, attack_flows)
    n_packets = sum(len(f) for f in flows)

    results: dict = {"n_packets": n_packets, "batch": {}, "shards": {}}
    for b in batch_sizes:
        best, n_dec = float("inf"), 0
        for _ in range(repeats):
            report = PegasusEngine.from_compiled(
                compiled, EngineConfig(feature_mode="stats", batch_size=b)
            ).serve(flows)
            best = min(best, report.wall_seconds)
            n_dec = report.n_decisions
        results["batch"][b] = {"pps": n_packets / max(best, 1e-9),
                               "decisions": n_dec}
    for s in shard_counts:
        best_wall, best_critical, n_dec = float("inf"), float("inf"), 0
        for _ in range(repeats):
            report = PegasusEngine.from_compiled(
                compiled, EngineConfig(feature_mode="stats", batch_size=256,
                                       topology="sharded", n_workers=s)
            ).serve(flows)
            best_wall = min(best_wall, report.wall_seconds)
            best_critical = min(best_critical, report.critical_seconds)
            n_dec = report.n_decisions
        results["shards"][s] = {
            "pps": n_packets / max(best_wall, 1e-9),
            # Replicas run concurrently in a real deployment: wall clock is
            # the slowest shard, not the serial sum.
            "pps_parallel": n_packets / max(best_critical, 1e-9),
            "decisions": n_dec}
    if 1 in results["batch"] and 256 in results["batch"]:
        results["speedup_256_vs_1"] = \
            results["batch"][256]["pps"] / results["batch"][1]["pps"]
    if 32 in results["batch"] and 256 in results["batch"]:
        results["small_batch_efficiency"] = \
            results["batch"][32]["pps"] / results["batch"][256]["pps"]
    return results


def run_parallel_throughput(flows_per_class: int = 120, seed: int = 0,
                            worker_counts: tuple[int, ...] = (1, 2, 4),
                            dataset: str = "peerrush",
                            attack_flows: int = 30,
                            repeats: int = 2,
                            batch_size: int = 256,
                            cache_capacity: int = 1 << 16,
                            elephant_flows: int = 12) -> dict:
    """Measured concurrent serving throughput (parallel dispatcher study).

    Replays the Figure-8 serving mix — plus ``elephant_flows`` constant-rate
    heavy hitters, the flood/stream-shaped traffic whose repeating windows
    the decision cache short-circuits — through a ``parallel``-topology
    :class:`~repro.serving.PegasusEngine` at several worker counts, with and
    without the per-replica flow-decision cache, and through the ``sharded``
    topology with the same shard count as the serial reference. Every
    parallel run is checked **bit-identical** to its serial reference
    (``all_match_serial``). Each measurement rebuilds a fresh engine so flow
    state starts cold; workers are started before timing so ``wall_seconds``
    is pure serve time; best of ``repeats`` runs. ``speedup_4_vs_1``
    compares measured wall clock at 4 workers vs 1 — real concurrency, not
    the sharded topology's ``max(shard_seconds)`` model (expect ~1x on a
    single-core host).
    """
    from dataclasses import replace

    from repro.serving import EngineConfig, PegasusEngine

    flows, compiled = _serving_mix(dataset, flows_per_class, seed, attack_flows,
                                   elephant_flows=elephant_flows)
    n_packets = sum(len(f) for f in flows)
    base = EngineConfig(feature_mode="stats", batch_size=batch_size,
                        cache_capacity=cache_capacity)

    results: dict = {"n_packets": n_packets, "workers": {}}
    all_match = True
    for n in worker_counts:
        serial_wall = float("inf")
        reference = None
        for _ in range(repeats):
            report = PegasusEngine.from_compiled(
                compiled, replace(base, topology="sharded", n_workers=n)
            ).serve(flows)
            reference = report.decisions
            serial_wall = min(serial_wall, report.wall_seconds)
        entry: dict = {
            "serial_pps": n_packets / max(serial_wall, 1e-9),
            "decisions": len(reference),
        }
        for label, cached in (("parallel", False), ("parallel_cached", True)):
            best_wall, decisions, hit_rate = float("inf"), None, 0.0
            for _ in range(repeats):
                with PegasusEngine.from_compiled(
                        compiled, replace(base, topology="parallel",
                                          n_workers=n, decision_cache=cached)
                ) as engine:
                    report = engine.serve(flows)
                    decisions = report.decisions
                    best_wall = min(best_wall, report.wall_seconds)
                    hit_rate = report.cache_stats.hit_rate
            matches = decisions == reference
            all_match = all_match and matches
            entry[label] = {
                "pps": n_packets / max(best_wall, 1e-9),
                "wall_seconds": best_wall,
                "matches_serial": matches,
            }
            if cached:
                entry[label]["cache_hit_rate"] = hit_rate
        results["workers"][n] = entry
    results["all_match_serial"] = all_match
    if 1 in results["workers"] and 4 in results["workers"]:
        one, four = results["workers"][1], results["workers"][4]
        results["speedup_4_vs_1"] = \
            four["parallel"]["pps"] / one["parallel"]["pps"]
        results["speedup_4_vs_1_cached"] = \
            four["parallel_cached"]["pps"] / one["parallel_cached"]["pps"]
        results["cache_hit_rate"] = four["parallel_cached"]["cache_hit_rate"]
    return results


def run_tcam_equivalence(flows_per_class: int = 120, seed: int = 0,
                         worker_counts: tuple[int, ...] = (1, 2, 4),
                         dataset: str = "peerrush",
                         attack_flows: int = 30,
                         elephant_flows: int = 8,
                         batch_size: int = 256,
                         cache_capacity: int = 1 << 16,
                         sample_keys: int = 256) -> dict:
    """Hardware-fidelity report: emulated TCAM vs index lookups, end to end.

    Three nested equivalence checks on the Figure-8 serving mix (benign test
    split + unknown attacks + constant-rate elephants), all required to hold
    bit-exactly:

    1. **entry level** — every fuzzy table's packed (value, mask, priority)
       rows, fed scalar through :func:`repro.core.crc.lookup_prioritized`,
       agree with the vectorized masked-compare engine on sampled keys;
    2. **table level** — TCAM fuzzy indices equal the tree walk on in-domain
       *and* out-of-domain keys (the fixed-width key clamp), and so does
       the index backend's leaf grid (no clamp: it agrees out of domain);
    3. **serving level** — the full matrix of workers {1,2,4} x cache on/off
       x ``sharded``/``parallel`` :class:`~repro.serving.PegasusEngine`
       topologies with ``lookup_backend="tcam"`` reproduces the
       index-backend reference decision stream exactly.

    Returns per-table encoding/entry rows plus ``all_match`` — the bit the
    CI equivalence gate (and the README fidelity claim) rests on.
    """
    from dataclasses import replace

    from repro.dataplane.tcam import tcam_table_report
    from repro.core.crc import lookup_prioritized
    from repro.core.fuzzy import key_domain
    from repro.serving import EngineConfig, PegasusEngine

    flows, compiled = _serving_mix(dataset, flows_per_class, seed, attack_flows,
                                   elephant_flows=elephant_flows)
    rng = np.random.default_rng(seed)
    tables = tcam_table_report(compiled)

    entry_match = True
    table_match = True
    ti = 0
    for layer in compiled.layers:
        for table in layer.tables:
            if table.kind != "fuzzy":
                continue
            seg = table.tcam_segment()
            lo, hi = key_domain(table.in_bits, table.in_signed)
            d = table.segment[1] - table.segment[0]
            keys = rng.integers(lo, hi + 1, size=(sample_keys, d))
            keys_out = rng.integers(lo - 2 * (hi - lo), hi + 2 * (hi - lo),
                                    size=(sample_keys // 4, d))
            want = table.tree.predict_index(keys)
            got = table.tcam_indices(keys)
            table_match &= bool(np.array_equal(got, want))
            # The index backend's own form (leaf grid where the table has
            # one) against the tree walk, without the clamp.
            table_match &= bool(np.array_equal(
                table.fuzzy_indices(keys), want))
            table_match &= bool(np.array_equal(
                table.fuzzy_indices(keys_out),
                table.tree.predict_index(keys_out)))
            table_match &= bool(np.array_equal(
                table.tcam_indices(keys_out),
                table.tree.predict_index(np.clip(keys_out, lo, hi))))
            # Pruned kernel: candidate-subset matching must agree with the
            # full prioritized scan on the same keys (in- and out-of-domain).
            table_match &= bool(np.array_equal(
                table.tcam_indices(keys, pruned=True), want))
            table_match &= bool(np.array_equal(
                table.tcam_indices(keys_out, pruned=True),
                table.tree.predict_index(np.clip(keys_out, lo, hi))))
            # Scalar TCAM reference on a sub-sample, per materialized table.
            for packed in seg.node_tables():
                sub = rng.integers(lo, hi + 1,
                                   size=(32, packed.n_fields))
                entries = packed.entries()
                scalar = [lookup_prioritized(entries, k)
                          for k in packed.pack_keys(sub)]
                entry_match &= bool(
                    np.array_equal(scalar, packed.lookup(sub)))
            tables[ti]["table_match"] = bool(np.array_equal(got, want))
            ti += 1

    base = EngineConfig(feature_mode="stats", batch_size=batch_size,
                        cache_capacity=cache_capacity)

    matrix: dict = {}
    serving_match = True
    for n in worker_counts:
        reference = PegasusEngine.from_compiled(
            compiled, replace(base, topology="sharded", n_workers=n)
        ).serve(flows).decisions
        entry: dict = {"decisions": len(reference)}
        for cached in ("off", "l1", "l1+l2"):
            # Rotate the TCAM flavor so the pruned kernel is exercised in
            # the serving matrix without doubling it: the two-level cache
            # config (the one that could mask a lookup bug behind hits)
            # serves through the pruned path.
            backend = "tcam-pruned" if cached == "l1+l2" else "tcam"
            def tcam(topology):
                return replace(base, lookup_backend=backend, n_workers=n,
                               decision_cache=cached, topology=topology)
            sharded_ok = PegasusEngine.from_compiled(
                compiled, tcam("sharded")
            ).serve(flows).decisions == reference
            with PegasusEngine.from_compiled(
                    compiled, tcam("parallel")) as engine:
                parallel_ok = engine.serve(flows).decisions == reference
            entry[f"cache_{cached}"] = {
                "lookup_backend": backend,
                "sharded_match": sharded_ok, "parallel_match": parallel_ok}
            serving_match = serving_match and sharded_ok and parallel_ok
        matrix[n] = entry

    return {
        "tables": tables,
        "tcam_entries_total": int(sum(t["entries"] for t in tables)),
        "entry_match": bool(entry_match),
        "table_match": bool(table_match),
        "serving_match": bool(serving_match),
        "all_match": bool(entry_match and table_match and serving_match),
        "matrix": matrix,
    }


def run_tcam_throughput(flows_per_class: int = 120, seed: int = 0,
                        dataset: str = "peerrush",
                        attack_flows: int = 30,
                        elephant_flows: int = 8,
                        batch_size: int = 256,
                        repeats: int = 2,
                        model_batch: int = 4096) -> dict:
    """Packets/sec of the lookup backends (TCAM-vs-index bench).

    Measures ``index``, the full-scan ``tcam`` emulation, and the
    ``tcam-pruned`` candidate-subset kernel. Two measurements per backend,
    best of ``repeats`` runs each:

    - **model level** — ``forward_int`` rows/sec on one large random batch,
      isolating pure lookup-engine cost (level-synchronous tree traversal
      vs masked-compare + priority reduction over the packed entries);
    - **serving level** — end-to-end ``local``-topology
      :class:`~repro.serving.PegasusEngine` replay pps on the Figure-8
      serving mix, the number that tells you what hardware-faithful
      emulation costs in the serving path.

    Decisions are asserted identical across backends (``matches_index``);
    TCAM compilation is warmed up-front so timings exclude it.
    """
    import time

    from repro.dataplane.tcam import tcam_table_report
    from repro.serving import EngineConfig, PegasusEngine

    flows, compiled = _serving_mix(dataset, flows_per_class, seed, attack_flows,
                                   elephant_flows=elephant_flows)
    n_packets = sum(len(f) for f in flows)
    tables = tcam_table_report(compiled)    # compile + warm every fuzzy table

    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << compiled.input_bits,
                     size=(model_batch, compiled.input_dim))
    results: dict = {
        "n_packets": n_packets,
        "model_batch": model_batch,
        "tcam_entries_total": int(sum(t["entries"] for t in tables)),
        "tcam_tables": len(tables),
        "model_rows_per_s": {},
        "serving_pps": {},
    }
    matches = True
    reference = None
    ref_forward = None
    for backend in ("index", "tcam", "tcam-pruned"):
        compiled.forward_int(x[:64], lookup_backend=backend)    # warm-up
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            out = compiled.forward_int(x, lookup_backend=backend)
            best = min(best, time.perf_counter() - start)
        if ref_forward is None:
            ref_forward = out
        else:
            matches = matches and bool(np.array_equal(out, ref_forward))
        results["model_rows_per_s"][backend] = model_batch / max(best, 1e-9)

        best = float("inf")
        decisions = None
        for _ in range(repeats):
            report = PegasusEngine.from_compiled(
                compiled, EngineConfig(feature_mode="stats",
                                       batch_size=batch_size,
                                       lookup_backend=backend)
            ).serve(flows)
            decisions = report.decisions
            best = min(best, report.wall_seconds)
        if reference is None:
            reference = decisions
        else:
            matches = matches and decisions == reference
        results["serving_pps"][backend] = n_packets / max(best, 1e-9)

    results["decisions"] = len(reference)
    results["matches_index"] = bool(matches)
    # Host-independent ratios over the full-scan emulation: what each
    # kernel claims (see benchmarks/bench_tcam_lookup.py for the gates).
    full_scan = max(results["serving_pps"]["tcam"], 1e-9)
    results["index_over_tcam"] = results["serving_pps"]["index"] / full_scan
    results["pruned_over_tcam"] = \
        results["serving_pps"]["tcam-pruned"] / full_scan
    return results


def run_scenario_suite(flows_per_class: int = 120, seed: int = 0,
                       dataset: str = "peerrush",
                       scenarios: tuple[str, ...] | None = None,
                       flows_scale: float = 1.0,
                       batch_size: int = 256,
                       decision_cache: bool | str = "l1+l2",
                       differential_seeds: int = 0,
                       differential_budget: float = 300.0) -> dict:
    """Serve every registered scenario family, reported per phase.

    Trains + compiles the serving MLP-B once, then replays each scenario
    through a ``local``-topology :class:`~repro.serving.PegasusEngine` via
    :meth:`~repro.serving.PegasusEngine.serve`, collecting the
    per-phase accuracy/pps/cache breakdown (an attack flood shows up as an
    accuracy cliff in its own phase, a heavy-hitter phase as a cache
    hit-rate spike). Because the default cache mode serves *approximate*
    L2 hits, every cached scenario replay is digest-compared against an
    uncached serve of the same workload — the suite's
    ``decisions_bit_identical`` bit. With ``differential_seeds >= 0`` the
    quick differential matrix (see :mod:`repro.eval.differential`) also
    replays the fixed seed plus that many random seeds, contributing the
    suite's ``differential_ok`` correctness bit.
    """
    from dataclasses import replace

    from repro.eval.differential import decision_digest, fuzz_differential
    from repro.net import build_scenario, scenario_names
    from repro.serving import EngineConfig, PegasusEngine

    row = train_and_eval_model("MLP-B", dataset, flows_per_class, seed)
    compiled = row["_model"].compiled
    config = EngineConfig(feature_mode="stats", batch_size=batch_size,
                          decision_cache=decision_cache)
    names = scenarios if scenarios is not None else scenario_names()

    results: dict = {"dataset": dataset, "model_f1": row["F1"],
                     "scenarios": {}, "cache_mode": config.decision_cache,
                     "decision_digests": {}}
    bit_identical = True
    for name in names:
        workload = build_scenario(name).generate(seed=seed,
                                                 flows_scale=flows_scale)
        with PegasusEngine.from_compiled(compiled, config) as engine:
            report = engine.serve(workload)
        digest = decision_digest(report.overall.decisions)
        if config.decision_cache != "off":
            with PegasusEngine.from_compiled(
                    compiled, replace(config, decision_cache="off")) as eng:
                plain = eng.serve(workload)
            bit_identical &= digest == decision_digest(plain.overall.decisions)
        results["scenarios"][name] = report.summary()
        results["decision_digests"][name] = digest
    results["decisions_bit_identical"] = bool(bit_identical)
    # The differential pass honors the same narrowing knobs as the serving
    # loop, so a restricted suite stays proportionally quick.
    fuzz = fuzz_differential(n_seeds=differential_seeds, base_seed=seed,
                             scenarios=tuple(names),
                             flows_scale=min(flows_scale, 0.5),
                             budget_seconds=differential_budget)
    results["differential_ok"] = fuzz.ok
    results["differential_trials"] = len(fuzz.trials)
    return results


#: Sentinel recorded in place of ``aimd_over_taildrop`` when tail-drop
#: sustained 0 pps (the ratio is undefined; the raw pair rides alongside).
TAILDROP_ZERO = "taildrop_zero"


def run_openloop_study(flows_per_class: int = 120, seed: int = 0,
                       dataset: str = "peerrush",
                       scenarios: tuple[str, ...] = ("microburst",
                                                     "attack_flood"),
                       flows_scale: float = 1.0,
                       batch_size: int = 32,
                       p99_target_ms: float = 50.0,
                       load_multipliers: tuple[float, ...] = (0.5, 2.0, 4.0),
                       policies: tuple[str, ...] = ("none", "tail-drop",
                                                    "aimd"),
                       max_gap: float = 0.25,
                       verify: bool = True) -> dict:
    """Sustained open-loop pps at a fixed p99 latency target, per policy.

    The open-loop serving study: each stress scenario is replayed through
    ``serve(mode="open")`` at several offered-load multiples of the
    engine's *measured* closed-loop service rate (the study self-calibrates,
    so the same code stresses a fast or slow host equally). Per admission
    policy, **sustained pps** is the highest admitted throughput among runs
    whose p99 sojourn met the target — the number a capacity planner wants.
    The ingress queue is sized at ~2x the target's worth of service, so a
    saturated tail-drop queue *clearly* misses the target (sojourn ~2x
    target) while the AIMD source throttle bounds queued delay and stays
    under it. The headline claim is AIMD sustaining strictly more than
    tail-drop; on bursty families tail-drop legitimately sustains *zero*
    (every burst fills the queue at any offered load), in which case the
    ``aimd_over_taildrop`` ratio is omitted.

    With ``verify=True`` every policy's highest-load run is checked by
    :func:`~repro.eval.differential.verify_open_loop`: the claimed admitted
    subsequence must replay bit-identically against the per-packet scalar
    reference (``verified_bit_identical``).
    """
    from repro.eval.differential import verify_open_loop
    from repro.net import build_scenario
    from repro.serving import EngineConfig, PegasusEngine

    row = train_and_eval_model("MLP-B", dataset, flows_per_class, seed)
    compiled = row["_model"].compiled
    target_s = p99_target_ms / 1e3

    results: dict = {"dataset": dataset, "p99_target_ms": p99_target_ms,
                     "scenarios": {}}
    verified = True
    for name in scenarios:
        workload = build_scenario(name).generate(seed=seed,
                                                 flows_scale=flows_scale)
        n = workload.n_packets
        # Calibrate: the open-loop consumer's own service rate on this
        # exact workload (admission="none", time_scale=0 — an unpaced
        # drain through the same pump/chunk path the paced runs use;
        # closed-loop pps would overstate it and skew the multipliers).
        with PegasusEngine.from_compiled(
                compiled, EngineConfig(feature_mode="stats",
                                       batch_size=batch_size)) as eng:
            service_pps = eng.serve(workload, mode="open").admitted_pps
        ts = workload.ts_column()
        span_s = float(ts[-1] - ts[0]) if n > 1 else 1.0
        queue_capacity = max(128, int(2 * target_s * service_pps))
        entry: dict = {"n_packets": n, "service_pps": service_pps,
                       "queue_capacity": queue_capacity,
                       "policies": {}}
        for policy in policies:
            runs = []
            sustained = 0.0
            last_report = None
            for mult in load_multipliers:
                offered_pps = mult * service_pps
                time_scale = n / max(span_s * offered_pps, 1e-9)
                config = EngineConfig(
                    feature_mode="stats", batch_size=batch_size,
                    admission=policy, queue_capacity=queue_capacity,
                    p99_target_ms=p99_target_ms, time_scale=time_scale)
                with PegasusEngine.from_compiled(compiled, config) as eng:
                    report = eng.serve(workload, mode="open",
                                       max_gap=max_gap)
                last_report = report
                meets = bool(report.meets_target)
                if meets:
                    sustained = max(sustained, report.admitted_pps)
                runs.append({"load_multiplier": mult,
                             "offered_pps": report.offered_pps,
                             "admitted_pps": report.admitted_pps,
                             "shed_fraction": report.shed_fraction,
                             "p99_ms": report.latency.p99_ms,
                             "meets_target": meets})
            policy_row = {"runs": runs, "sustained_pps": sustained,
                          "last_summary": (last_report.summary()
                                           if last_report else None)}
            if verify and last_report is not None:
                notes = verify_open_loop(workload, last_report, compiled)
                policy_row["verify_notes"] = notes
                verified = verified and not notes
            entry["policies"][policy] = policy_row
        td = entry["policies"].get("tail-drop", {}).get("sustained_pps", 0.0)
        ai = entry["policies"].get("aimd", {}).get("sustained_pps", 0.0)
        entry["sustained_raw"] = {"aimd": ai, "tail_drop": td}
        # Tail-drop legitimately sustains *zero* pps on bursty families
        # (every burst parks its survivors behind a full queue), which makes
        # the ratio undefined — record the explicit sentinel plus the raw
        # pair above instead of omitting the key, so downstream gates can
        # tell "undefined, aimd still wins" from "never measured".
        entry["aimd_over_taildrop"] = ai / td if td else TAILDROP_ZERO
        results["scenarios"][name] = entry
    results["verified_bit_identical"] = bool(verified)
    ratios = [e["aimd_over_taildrop"]
              for e in results["scenarios"].values()]
    numeric = [r for r in ratios if not isinstance(r, str)]
    if numeric:
        results["aimd_over_taildrop_min"] = min(numeric)
    elif ratios:
        results["aimd_over_taildrop_min"] = TAILDROP_ZERO
    return results


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
