"""Host-independent cost budgets of the batched replay.

Wall-clock gates do not resolve on a small shared host; call counts and
allocation peaks do. A batch's fixed cost is, to first order, its number of
calls, so these tests count ``call`` and ``c_call`` profile events whose
*calling* frame is in a ``repro.*`` module: NumPy's own Python wrappers do
not move the count between NumPy versions.

The budgets guard against regressions; they are never a performance claim
(claims are ``pps`` from ``perf/``). A change that lowers a cost lowers its
budget; raising one needs a measured ``pps`` win beside it.
"""

import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest

import repro.dataplane.runtime as runtime_module
from repro.core import fuzzy
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime, flows_to_trace)
from repro.eval.differential import build_two_stage_spec
from repro.net import build_scenario

# Single-batch serves (an open-loop chunk, a small parallel shard): at
# most the call + c_call events they make with narrow integers through the
# model stage (84 + 121 and 85 + 128, three fewer than before it, when
# closed-loop replays began stepping registers in REGISTER_STEP_ROWS spans),
# so neither change adds per-chunk work.
SINGLE_BATCH_BUDGET = {10: 205, 32: 213}
# The whole trace closed loop at batch 32: 358 call and 700 c_call events
# measured, + 10%.
CLOSED_LOOP_B32_BUDGET = {"call": 394, "c_call": 770}
# tracemalloc peak of CompiledModel.predict per row, on int64 inputs (a
# compiled model's runtime feeds it uint8, 138 B): 194 B measured, + 10%.
PREDICT_BYTES_PER_ROW = 214
# About 60 B/row of that is a per-call NumPy casting buffer, so the per-row
# peak falls as the batch grows (144 B at 4,096 rows, 136 B at 16,384). What
# a row costs on top of a batch, (peak(16,384) - peak(4,096)) / 12,288:
# 133 B measured, + 10%.
PREDICT_MARGINAL_BYTES_PER_ROW = 146
# The whole 6,082-packet hitters_base trace closed loop in the default
# REGISTER_STEP_ROWS steps: 171 call and 783 c_call events measured, + 10%.
HITTERS_BASE_BUDGET = {"call": 188, "c_call": 861}
# tracemalloc peak of that replay per packet at capacity 4,096: 155 B
# measured, + 10%. The registers live on an anonymous mapping tracemalloc
# does not see, so this is the per-step allocations alone.
HITTERS_BASE_BYTES_PER_PACKET = 171
# tracemalloc peak per packet of 1,000 flow_churn packets (mostly mice, so
# the register step, not the model, sets it) at capacity 2,048: 157 B
# measured, + 10%.
MICE_BYTES_PER_PACKET = 173
# Packets that fill every flow's window before a single-batch serve.
WARM = 400
# tracemalloc peak of a FuzzyTree fit, by (shape, leaves, min_cluster): the
# perf model's 16-dim table and the shape of CNN-L's extractor fit. Both are
# the root cluster's one-block prefix sums: 1,743,115 and 5,156,150 B
# measured, + 10% (the per-feature loop peaked at 306,314 and 1,769,489 B).
FIT_PEAK_BYTES = {((370, 16), 256, 1): 1_918_000, ((6000, 8), 16, 4): 5_672_000}


def repro_calls(fn) -> dict[str, int]:
    """Profile events of ``fn()`` whose calling frame is in ``repro.*``."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event == "call":
            frame = frame.f_back
        elif event != "c_call":
            return
        if frame is not None and frame.f_globals.get(
                "__name__", "").startswith("repro."):
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees ``fn()`` allocate above its start."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class _CountingModel:
    def __init__(self, model):
        self.model, self.calls = model, 0

    def predict(self, x):
        self.calls += 1
        return self.model.predict(x)


@pytest.fixture(scope="module")
def trace_labels(replay_flows):
    return flows_to_trace(replay_flows)


@pytest.fixture(scope="module")
def hitters_base():
    """The trace and labels of ``perf/``'s ``hitters_base`` workload."""
    generated = build_scenario("heavy_hitters").generate(seed=0, flows_scale=2)
    return generated.trace, generated.labels


@pytest.mark.parametrize("rows", sorted(SINGLE_BATCH_BUDGET))
def test_single_batch_serve_calls(compiled16, trace_labels, rows):
    trace, labels = trace_labels
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats")
    runtime.process_trace(trace[:WARM], labels[:WARM])
    chunk, chunk_labels = trace[WARM:WARM + rows], labels[WARM:WARM + rows]
    out = []
    calls = repro_calls(
        lambda: out.append(runtime.process_trace(chunk, chunk_labels)))
    assert len(out[0]) > 0          # the serve must reach the model
    assert calls["call"] + calls["c_call"] <= SINGLE_BATCH_BUDGET[rows], calls


def test_closed_loop_b32_calls(compiled16, trace_labels):
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats",
                                        batch_size=32)
    calls = repro_calls(lambda: runtime.process_trace(*trace_labels))
    assert calls["call"] <= CLOSED_LOOP_B32_BUDGET["call"], calls
    assert calls["c_call"] <= CLOSED_LOOP_B32_BUDGET["c_call"], calls


def test_hitters_base_replay_calls(compiled16, hitters_base):
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats")
    calls = repro_calls(lambda: runtime.process_trace(*hitters_base))
    assert calls["call"] <= HITTERS_BASE_BUDGET["call"], calls
    assert calls["c_call"] <= HITTERS_BASE_BUDGET["c_call"], calls


def test_hitters_base_replay_peak_bytes_per_packet(compiled16, hitters_base):
    trace, labels = hitters_base
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats",
                                        capacity=4096)
    peak = traced_peak(lambda: runtime.process_trace(trace, labels))
    assert peak / len(trace) <= HITTERS_BASE_BYTES_PER_PACKET


def test_mice_replay_peak_bytes_per_packet(compiled16):
    generated = build_scenario("flow_churn").generate(seed=0, flows_scale=2)
    trace, labels = generated.trace[:1000], generated.labels[:1000]
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats",
                                        capacity=2048)
    peak = traced_peak(lambda: runtime.process_trace(trace, labels))
    assert peak / len(trace) <= MICE_BYTES_PER_PACKET


@pytest.mark.parametrize("stage_rows", [None, 64])
@pytest.mark.parametrize("batch_size", [1, 32, 256])
def test_predict_calls_per_replay(compiled16, trace_labels, monkeypatch,
                                  stage_rows, batch_size):
    """The model runs once per model stage, not once per batch."""
    if stage_rows is not None:
        monkeypatch.setattr(runtime_module, "MODEL_STAGE_ROWS", stage_rows)
    model = _CountingModel(compiled16)
    runtime = WindowedClassifierRuntime(model, feature_mode="stats",
                                        batch_size=batch_size)
    ready = len(runtime.process_trace(*trace_labels))
    assert ready > 0
    assert model.calls <= math.ceil(
        ready / runtime_module.MODEL_STAGE_ROWS) + 1


class _CountingTable:
    """A SumReduce slot table that counts its gathers: one per decision
    call of the two-stage runtime."""

    def __init__(self, table):
        self.table, self.gathers = table, 0

    def __getitem__(self, idx):
        self.gathers += 1
        return self.table[idx]


@pytest.mark.parametrize("batch_size", [1, 32, 256])
def test_two_stage_decide_calls_per_replay(hitters_base, batch_size):
    """The two-stage runtime's SumReduce runs once per model stage too."""
    spec = build_two_stage_spec(0)
    first = spec["slot_values"][0] = _CountingTable(spec["slot_values"][0])
    runtime = TwoStageRuntime(batch_size=batch_size, **spec)
    ready = len(runtime.process_trace(*hitters_base))
    assert ready > 0
    assert first.gathers <= math.ceil(
        ready / runtime_module.MODEL_STAGE_ROWS) + 1


def test_predict_peak_bytes_per_row(compiled16):
    """SumReduce keeps one table's gather alive at a time, so a large model
    stage costs no more memory per row than a small batch."""
    peaks = {}
    for rows in (1024, runtime_module.MODEL_STAGE_ROWS, 4096, 16384):
        x = np.random.default_rng(0).integers(0, 256, size=(rows, 16))
        compiled16.predict(x)
        peaks[rows] = traced_peak(lambda: compiled16.predict(x))
    assert peaks[1024] / 1024 <= PREDICT_BYTES_PER_ROW
    stage = runtime_module.MODEL_STAGE_ROWS
    assert peaks[stage] / stage <= peaks[1024] / 1024
    assert (peaks[16384] - peaks[4096]) / (16384 - 4096) \
        <= PREDICT_MARGINAL_BYTES_PER_ROW


def _fit_rows(shape):
    return np.floor(np.random.default_rng(0).uniform(0, 128, size=shape))


def test_fit_sorts_once_per_scored_cluster(monkeypatch):
    """A cluster of two or more rows is scored with one argsort over all of
    its features (the per-feature loop paid one per feature: 16 here)."""
    x = _fit_rows((370, 16))
    best_split, argsort = fuzzy._best_split, np.argsort
    scored, sorts = [], []

    def scoring(rows):
        scored.append(len(rows))
        return best_split(rows)

    def sorting(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(fuzzy, "_best_split", scoring)
    monkeypatch.setattr(np, "argsort", sorting)
    tree = fuzzy.FuzzyTree.fit(x, n_leaves=256)
    assert tree.n_leaves == 256
    assert len(sorts) == sum(n >= 2 for n in scored) > 256


@pytest.mark.parametrize("shape, n_leaves, min_cluster", list(FIT_PEAK_BYTES))
def test_fit_peak_bytes(shape, n_leaves, min_cluster):
    x = _fit_rows(shape)
    peak = traced_peak(lambda: fuzzy.FuzzyTree.fit(x, n_leaves, min_cluster))
    assert peak <= FIT_PEAK_BYTES[shape, n_leaves, min_cluster]
