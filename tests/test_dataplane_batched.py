"""Batched-vs-scalar bit-exactness of the dataplane runtimes.

The contract under test: for any batch size, the batched vectorized replay
produces the *same decisions in the same order* as the per-packet scalar
oracle (:class:`repro.eval.oracle.ScalarOracle`, driven by
``scalar_replay``) — including under register-capacity eviction churn and
when the model is a placed Pipeline instead of a bare CompiledModel — and
leaves the registers holding the oracle's per-flow state.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core.fuzzy import FuzzyTree
from repro.dataplane import place_model, TOFINO2, VectorFlowState
from repro.dataplane.registers import FlowStateLayout, RegisterField
from repro.errors import ConfigError, PipelineError
import repro.dataplane.runtime as runtime_module
from repro.dataplane.runtime import (TwoStageRuntime,
                                     WindowedClassifierRuntime, flows_to_trace)
from repro.eval.differential import build_two_stage_spec, scalar_replay
from repro.eval.oracle import ScalarOracle, ipd_bucket
from repro.net.flow import Flow
from repro.net.packet import FlowKey, Packet
from repro.net.traces import Trace, flow_ids

BATCH_SIZES = (1, 7, 256)


def _both_directions(flows):
    """``flows`` with the first flow's every other packet sent in reverse,
    so one flow arrives under both orientations of its 5-tuple."""
    first = flows[0]
    packets = [dataclasses.replace(p, key=p.key.reversed()) if i % 2 else p
               for i, p in enumerate(first.packets)]
    return [Flow(key=first.key, packets=packets, label=first.label),
            *flows[1:]]


class TestWindowedBatched:
    @pytest.mark.parametrize("mode", ["seq", "stats"])
    def test_bit_exact_across_batch_sizes(self, compiled16, replay_flows, mode):
        flows = _both_directions(replay_flows)
        trace, labels = flows_to_trace(flows)
        assert len(set(trace.canonical_keys())) < len(set(
            p.key for p in trace.packets))     # a flow in two orientations
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode=mode), trace, labels)
        assert ref  # the workload must actually produce decisions
        for batch_size in BATCH_SIZES:
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode=mode, batch_size=batch_size)
            assert list(runtime.process_flows(flows)) == ref

    def test_bit_exact_under_eviction(self, compiled16, replay_flows):
        oracle = ScalarOracle.of(WindowedClassifierRuntime(
            compiled16, feature_mode="stats", capacity=5))
        ref = oracle.replay(*flows_to_trace(replay_flows))
        assert oracle.evictions > 0
        for batch_size in BATCH_SIZES:
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode="stats", capacity=5,
                batch_size=batch_size)
            assert list(runtime.process_flows(replay_flows)) == ref
            assert runtime.state.evictions == oracle.evictions

    @pytest.mark.parametrize("mode", ["seq", "stats"])
    @pytest.mark.parametrize("capacity", [1_000, 5])
    def test_register_state_matches_scalar(self, compiled16, replay_flows,
                                           registers_match, mode, capacity):
        """Every live flow's registers, the live-flow set and the eviction
        count end equal to the oracle's per-flow state, not just the
        decisions: a bad history write-back, or a reused slot that is not
        zeroed, would otherwise show only in a later serve."""
        # A three-packet flow after all the others: under eviction it ends
        # in a reused slot with its history only partly refilled.
        first, key = replay_flows[0], FlowKey(9, 9, 9, 9, 17)
        shift = max(f.packets[-1].ts for f in replay_flows) + 1.0 - first.start_ts
        late = [dataclasses.replace(p, key=key, ts=p.ts + shift)
                for p in first.packets[:3]]
        flows = [*replay_flows, Flow(key=key, packets=late, label=0)]
        oracle = ScalarOracle.of(WindowedClassifierRuntime(
            compiled16, feature_mode=mode, capacity=capacity))
        oracle.replay(*flows_to_trace(flows))
        for batch_size in BATCH_SIZES:
            runtime = WindowedClassifierRuntime(
                compiled16, feature_mode=mode, capacity=capacity,
                batch_size=batch_size)
            runtime.process_flows(flows)
            registers_match(runtime.state, oracle)

    def test_registers_allocated_once(self, compiled16):
        """Every column and bank is a view of one buffer of exactly 17 B per
        flow: no field gets a second copy beside the bank, and no two arrays
        overlap. (The buffer is an anonymous mapping, which tracemalloc does
        not see, so the check is on the views themselves.)"""
        capacity = 1 << 16
        runtime = WindowedClassifierRuntime(compiled16, capacity=capacity)
        state = runtime.state
        assert runtime.bits_per_flow == 136

        def root(array):
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array

        buffers = {id(root(a)): root(a) for a in
                   [*state.columns.values(), *state.banks.values()]}
        assert len(buffers) == 1
        (buffer,) = buffers.values()
        assert buffer.nbytes == 17 * capacity
        arrays = [state.columns["prev_ts"], state.columns["count"],
                  state.banks["hist"]]
        assert sum(a.nbytes for a in arrays) == buffer.nbytes
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_features_narrow_only_for_compiled_models(self, compiled16):
        """A compiled model, bare or placed, takes its features as the
        windows' uint8 (it widens keys itself); any other model keeps the
        int64 inputs of the decision interface. The values are the same."""
        win = np.random.default_rng(0).integers(
            0, 40, size=(5, 2, 8)).astype(np.uint8)

        class Wrapped:
            predict = staticmethod(compiled16.predict)

        for mode in ("seq", "stats"):
            want = WindowedClassifierRuntime(
                Wrapped(), feature_mode=mode)._features_batch(win)
            assert want.dtype == np.int64
            for model in (compiled16, place_model(compiled16, TOFINO2)):
                got = WindowedClassifierRuntime(
                    model, feature_mode=mode)._features_batch(win)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, want)

    def test_pipeline_model_matches_compiled(self, compiled16, replay_flows):
        """A placed Pipeline behind the runtime (and behind the oracle, which
        reads its ``model``) decides like the raw model."""
        pipeline = place_model(compiled16, TOFINO2)
        trace, labels = flows_to_trace(replay_flows)
        ref = scalar_replay(WindowedClassifierRuntime(
            compiled16, feature_mode="seq"), trace, labels)
        assert scalar_replay(WindowedClassifierRuntime(
            pipeline, feature_mode="seq"), trace, labels) == ref
        runtime = WindowedClassifierRuntime(
            pipeline, feature_mode="seq", batch_size=64)
        assert list(runtime.process_flows(replay_flows)) == ref

    def test_window_below_two_is_refused(self, compiled16):
        """A one-packet window has no stored history to shift into, so the
        runtime refuses it before any replay."""
        with pytest.raises(ConfigError) as exc:
            WindowedClassifierRuntime(compiled16, window=1)
        assert exc.value.field == "window"

    def test_decisions_carry_trace_order(self, compiled16, replay_flows):
        decisions = WindowedClassifierRuntime(
            compiled16, feature_mode="stats").process_flows(replay_flows)
        seqs = [d.seq for d in decisions]
        assert seqs == sorted(seqs)
        assert all(s >= 0 for s in seqs)
        # Plain Python scalars (json / pickle / dict keys), never NumPy ones.
        assert {(type(d.flow_label), type(d.predicted), type(d.ts), type(d.seq))
                for d in decisions} == {(int, int, float, int)}


def _add_ipd(rows, ipd_bucket):
    """A refined-feature stage that reads the IPD bucket, so the two-stage
    replay's ``prev_ts`` register is live."""
    return np.asarray(rows, dtype=np.float64) \
        + np.atleast_1d(ipd_bucket)[:, None]


def _fail_first_decide(runtime):
    """Make ``runtime``'s first model stage raise; later ones decide."""
    decide, failed = runtime._decide, []

    def fail_once(win):
        if not failed:
            failed.append(win)
            raise RuntimeError("injected model failure")
        return decide(win)

    runtime._decide = fail_once
    return runtime


class TestModelStage:
    """The replay's stateless half: ready rows are staged and decided once
    per ``MODEL_STAGE_ROWS`` rows and at replay end. These tests drive the
    windowed runtime; :class:`TestTwoStageModelStage` reruns them on the
    two-stage runtime."""

    @pytest.fixture
    def make_runtime(self, compiled16):
        return functools.partial(WindowedClassifierRuntime, compiled16,
                                 feature_mode="stats")

    @pytest.mark.parametrize("stage_rows", [1, 7, 64])
    @pytest.mark.parametrize("capacity", [1_000, 5])
    def test_stage_boundaries_match_scalar(self, make_runtime, replay_flows,
                                           registers_match, monkeypatch,
                                           stage_rows, capacity):
        """Stage cuts that fall inside a flow's window, at every batch size
        and under eviction, change no decision and no register."""
        trace, labels = flows_to_trace(replay_flows)
        oracle = ScalarOracle.of(make_runtime(capacity=capacity))
        ref = oracle.replay(trace, labels)
        assert len(ref) > stage_rows
        monkeypatch.setattr(runtime_module, "MODEL_STAGE_ROWS", stage_rows)
        for batch_size in BATCH_SIZES:
            runtime = make_runtime(capacity=capacity, batch_size=batch_size)
            assert list(runtime.process_trace(trace, labels)) == ref
            registers_match(runtime.state, oracle)

    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_stage_rows_are_a_bound(self, make_runtime, replay_flows,
                                    monkeypatch, batch_size):
        """Every model stage but the last decides exactly
        ``MODEL_STAGE_ROWS`` rows, even when one batch holds more."""
        monkeypatch.setattr(runtime_module, "MODEL_STAGE_ROWS", 64)
        runtime = make_runtime(batch_size=batch_size)
        decide, sizes = runtime._decide, []

        def recording(win):
            sizes.append(len(win))
            return decide(win)

        runtime._decide = recording
        ready = len(runtime.process_trace(*flows_to_trace(replay_flows)))
        assert ready > 2 * 64 and sum(sizes) == ready
        assert sizes[:-1] == [64] * (len(sizes) - 1) and 0 < sizes[-1] <= 64

    def test_failed_stage_leaks_no_rows_into_next_replay(self, make_runtime,
                                                         replay_flows):
        """A replay whose model stage raises leaves no staged row behind:
        the next replay decides exactly what it would after a clean one."""
        trace, labels = flows_to_trace(replay_flows)
        half = len(trace) // 2
        a, b = (trace[:half], labels[:half]), (trace[half:], labels[half:])
        clean = make_runtime()
        assert 0 < len(clean.process_trace(*a)) < runtime_module.MODEL_STAGE_ROWS
        want = clean.process_trace(*b)

        failing = _fail_first_decide(make_runtime())
        with pytest.raises(RuntimeError, match="injected"):
            failing.process_trace(*a)
        got = failing.process_trace(*b)
        assert len(want) > 0
        for name, column in want.columns().items():
            np.testing.assert_array_equal(got.columns()[name], column,
                                          err_msg=name)


class TestTwoStageModelStage(TestModelStage):
    """The model-stage tests on the two-stage runtime, with IPD so its
    ``prev_ts`` register is live."""

    @pytest.fixture
    def make_runtime(self):
        return functools.partial(TwoStageRuntime, needs_ipd=True,
                                 feature_fn=_add_ipd, **build_two_stage_spec(1))


class TestTwoStageBatched:
    @pytest.fixture(scope="class")
    def slot_values(self):
        rng = np.random.default_rng(1)
        return [rng.integers(-50, 50, size=(16, 3)) for _ in range(8)]

    def test_raw_bytes_bit_exact(self, replay_flows, slot_values):
        rng = np.random.default_rng(2)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=16)
        ref = scalar_replay(
            TwoStageRuntime(tree, slot_values, n_classes=3, idx_bits=4),
            *flows_to_trace(replay_flows))
        assert ref
        for batch_size in BATCH_SIZES:
            runtime = TwoStageRuntime(tree, slot_values, n_classes=3,
                                      idx_bits=4, batch_size=batch_size)
            assert list(runtime.process_flows(replay_flows)) == ref

    def test_window_below_two_is_refused(self):
        spec = build_two_stage_spec(0, window=1)
        with pytest.raises(ConfigError) as exc:
            TwoStageRuntime(window=1, **spec)
        assert exc.value.field == "window"

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
        ref = scalar_replay(ref_rt, *flows_to_trace(replay_flows))
        assert ref
        for batch_size in BATCH_SIZES:
            runtime = TwoStageRuntime(tree, slot_values, n_classes=3,
                                      idx_bits=4, needs_ipd=True,
                                      feature_fn=feature_fn,
                                      batch_size=batch_size)
            assert list(runtime.process_flows(replay_flows)) == ref


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

    def test_bank_backs_its_fields_with_one_array(self):
        layout = FlowStateLayout(fields=[
            RegisterField("a", 8, count=3, bank="h"),
            RegisterField("b", 8, count=3, bank="h"),
        ])
        state = VectorFlowState(layout, capacity=4)
        bank = state.banks["h"]
        assert bank.shape == (4, 2, 3) and bank.dtype == np.uint8
        assert layout.bits_per_flow == 48
        state.columns["b"][1, 2] = 7
        state.columns["a"][1, 2] = 5
        assert bank[1].tolist() == [[0, 0, 5], [0, 0, 7]]
        with pytest.raises(PipelineError, match="mixes"):
            VectorFlowState(FlowStateLayout(fields=[
                RegisterField("a", 8, count=3, bank="h"),
                RegisterField("b", 8, count=2, bank="h"),
            ]))

    @staticmethod
    def _words(*ports):
        """Packed key rows of flows ``1:port -> 2:80``, one per port."""
        return Trace([Packet(ts=0.0, length=60, key=FlowKey(1, 2, p, 80, 6))
                      for p in ports]).key_words

    def test_fifo_eviction_zeroes_reused_slot(self):
        state = VectorFlowState(self._layout(), capacity=2)
        k1, k2, k3 = (self._words(p) for p in (1000, 1001, 1002))
        slot1 = int(state.acquire(k1).slots[0])
        state.columns["prev_ts"][slot1] = 1234
        state.columns["idx_hist"][slot1] = 9
        state.acquire(k2)
        slot3 = int(state.acquire(k3).slots[0])
        assert slot3 == slot1                   # FIFO: k1 was oldest
        assert state.evictions == 1
        # The reused slot starts zeroed, every column of it.
        assert all(not column[slot3].any() for column in state.columns.values())
        assert flow_ids(k1)[0] not in state._slot_of

    def test_acquire_refuses_blocked_victim(self):
        """A batch is cut before an eviction of a slot it already uses."""
        state = VectorFlowState(self._layout(), capacity=1)
        k1, k2 = self._words(1000), self._words(1001)
        slot1 = int(state.acquire(k1).slots[0])
        batch = state.acquire(np.concatenate([k1, k2]))
        assert batch.rows == 1                  # cut before k2's eviction
        assert batch.slots.tolist() == [slot1]
        assert state.evictions == 0             # refusal must not mutate
        assert state._slot_of[flow_ids(k1)[0]] == slot1
        assert state.acquire(k2).rows == 1      # next batch: evicts k1
        assert state.evictions == 1


def test_ipd_bucket_table_matches_scalar():
    """The batched step's IPD bucket table equals the oracle's ``math.log2``
    bucketing on every 16-bit timestamp difference."""
    from repro.dataplane.runtime import TS_MASK, _IPD_BUCKET_OF_UNITS
    assert _IPD_BUCKET_OF_UNITS.tolist() == [
        ipd_bucket(units) for units in range(TS_MASK + 1)]
