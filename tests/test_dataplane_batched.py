"""Batched-vs-scalar bit-exactness of the dataplane runtimes.

The contract under test: for any batch size, the batched vectorized replay
produces the *same decisions in the same order* as the per-packet reference
path (``process_flows_scalar``) — including under register-capacity
eviction churn and when the model is a placed Pipeline instead of a bare
CompiledModel.
"""

import numpy as np
import pytest

from repro.core.fuzzy import FuzzyTree
from repro.dataplane import place_model, TOFINO2, VectorFlowState
from repro.dataplane.registers import FlowStateLayout, RegisterField
from repro.dataplane.runtime import TwoStageRuntime, WindowedClassifierRuntime

BATCH_SIZES = (1, 7, 256)


class TestWindowedBatched:
    @pytest.mark.parametrize("mode", ["seq", "stats"])
    def test_bit_exact_across_batch_sizes(self, compiled16, replay_flows, mode):
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode=mode).process_flows_scalar(replay_flows)
        assert ref  # the workload must actually produce decisions
        for batch_size in BATCH_SIZES:
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode=mode, batch_size=batch_size)
            assert runtime.process_flows(replay_flows) == ref

    def test_bit_exact_under_eviction(self, compiled16, replay_flows):
        ref_rt = WindowedClassifierRuntime(
            compiled16, feature_mode="stats", capacity=5)
        ref = ref_rt.process_flows_scalar(replay_flows)
        assert ref_rt.state.evictions > 0
        for batch_size in BATCH_SIZES:
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode="stats", capacity=5,
                batch_size=batch_size)
            assert runtime.process_flows(replay_flows) == ref
            assert runtime.state.evictions == ref_rt.state.evictions

    def test_pipeline_model_matches_compiled(self, compiled16, replay_flows):
        """A placed Pipeline behind the runtime decides like the raw model."""
        pipeline = place_model(compiled16, TOFINO2)
        ref = WindowedClassifierRuntime(
            compiled16, feature_mode="seq").process_flows_scalar(replay_flows)
        runtime = WindowedClassifierRuntime(
            pipeline, feature_mode="seq", batch_size=64)
        assert runtime.process_flows(replay_flows) == ref

    def test_decisions_carry_trace_order(self, compiled16, replay_flows):
        decisions = WindowedClassifierRuntime(
            compiled16, feature_mode="stats").process_flows(replay_flows)
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)
        assert all(s >= 0 for s in seqs)
        # Plain Python scalars (json / pickle / dict keys), never NumPy ones.
        assert {(type(d.flow_label), type(d.predicted), type(d.ts), type(d.seq))
                for d in decisions} == {(int, int, float, int)}


class TestTwoStageBatched:
    @pytest.fixture(scope="class")
    def slot_values(self):
        rng = np.random.default_rng(1)
        return [rng.integers(-50, 50, size=(16, 3)) for _ in range(8)]

    def test_raw_bytes_bit_exact(self, replay_flows, slot_values):
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
        ref = TwoStageRuntime(
            tree, slot_values, n_classes=3, idx_bits=4
        ).process_flows_scalar(replay_flows)
        assert ref
        for batch_size in BATCH_SIZES:
            runtime = TwoStageRuntime(tree, slot_values, n_classes=3,
                                      idx_bits=4, batch_size=batch_size)
            assert runtime.process_flows(replay_flows) == ref

    def test_feature_fn_and_ipd_bit_exact(self, replay_flows, slot_values):
        """The refined-feature + IPD path (CNN-L 44-bit variant) stays exact."""
        rng = np.random.default_rng(3)
        proj = rng.normal(size=(60, 5))

        def feature_fn(rows, ipd_bucket=None):
            feats = np.asarray(rows, dtype=np.float64) @ proj
            if ipd_bucket is not None:
                feats = feats + np.atleast_1d(ipd_bucket)[:, None]
            return feats

        tree = FuzzyTree.fit(rng.uniform(-100, 100, size=(300, 5)), n_leaves=16)
        ref_rt = TwoStageRuntime(tree, slot_values, n_classes=3, idx_bits=4,
                                 needs_ipd=True, feature_fn=feature_fn)
        assert ref_rt.bits_per_flow == 16 + 8 + 4 * 7
        ref = ref_rt.process_flows_scalar(replay_flows)
        assert ref
        for batch_size in BATCH_SIZES:
            runtime = TwoStageRuntime(tree, slot_values, n_classes=3,
                                      idx_bits=4, needs_ipd=True,
                                      feature_fn=feature_fn,
                                      batch_size=batch_size)
            assert runtime.process_flows(replay_flows) == ref


class TestVectorFlowState:
    def _layout(self):
        return FlowStateLayout(fields=[
            RegisterField("prev_ts", 16),
            RegisterField("idx_hist", 4, count=7),
        ])

    def test_columns_preallocated_with_narrow_dtypes(self):
        state = VectorFlowState(self._layout(), capacity=10)
        assert state.columns["prev_ts"].shape == (10, 1)
        assert state.columns["prev_ts"].dtype == np.uint16
        assert state.columns["idx_hist"].shape == (10, 7)
        assert state.columns["idx_hist"].dtype == np.uint8

    def test_fifo_eviction_zeroes_reused_slot(self):
        from repro.net.packet import FlowKey
        state = VectorFlowState(self._layout(), capacity=2)
        k1, k2, k3 = (FlowKey(1, 2, p, 80, 6) for p in (1000, 1001, 1002))
        state.write(k1, "prev_ts", 1234)
        state.acquire(k2)
        slot1 = state.slot_of(k1)
        assert state.acquire(k3) == slot1       # FIFO: k1 was oldest
        assert state.evictions == 1
        assert state.read(k3, "prev_ts") == 0   # reused slot starts zeroed
        assert state.slot_of(k1) is None

    def test_acquire_refuses_blocked_victim(self):
        from repro.net.packet import FlowKey
        state = VectorFlowState(self._layout(), capacity=1)
        k1, k2 = FlowKey(1, 2, 1000, 80, 6), FlowKey(1, 2, 1001, 80, 6)
        slot1 = state.acquire(k1)
        assert state.acquire(k2, blocked={slot1}) is None
        assert state.evictions == 0             # refusal must not mutate
        assert state.slot_of(k1) == slot1
