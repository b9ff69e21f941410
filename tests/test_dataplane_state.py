"""Tests for per-flow registers and their flow-slot table, resource reports,
and throughput models."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro import nn
from repro.core import PegasusCompiler, CompilerConfig
from repro.core.fuzzy import FuzzyTree
from repro.dataplane import (
    FlowStateLayout, RegisterField, VectorFlowState,
    summarize_resources, TOFINO2, line_rate_pps, measure_model_throughput,
)
from repro.dataplane.runtime import TwoStageRuntime
from repro.eval.differential import build_two_stage_spec, scalar_replay
from repro.eval.oracle import ScalarOracle
from repro.net.packet import FlowKey, Packet
from repro.net.traces import TS_UNIT_SECONDS, Trace, flow_ids


def _layout():
    return FlowStateLayout(fields=[
        RegisterField("prev_ts", 16),
        RegisterField("idx_hist", 4, count=7),
    ])


class TestFlowStateLayout:
    def test_bits_per_flow(self):
        assert _layout().bits_per_flow == 16 + 28  # the paper's 44-bit CNN-L layout

    def test_sram_for_1m_flows(self):
        layout = _layout()
        assert layout.sram_bits(1_000_000) == 44_000_000
        frac = layout.sram_fraction(1_000_000, TOFINO2.total_sram_bits)
        assert 0.2 < frac < 0.3  # ~22% of 200 Mb

    def test_unknown_field(self):
        """A state holds a column for each declared field and no other."""
        state = VectorFlowState(_layout(), capacity=2)
        assert sorted(state.columns) == ["idx_hist", "prev_ts"]
        with pytest.raises(KeyError):
            state.columns["nope"]


class _ReferenceTable:
    """Per-packet FIFO slot table: the pre-batching ``acquire`` loop.

    Insertion order of ``slot_of`` is FIFO order; a packet whose allocation
    would evict a slot already used in the batch (``blocked``) cuts it.
    """

    def __init__(self, capacity):
        self.capacity, self.slot_of, self.next_slot = capacity, {}, 0
        self.evictions = 0

    def acquire(self, key, blocked):
        slot = self.slot_of.get(key)
        if slot is not None:
            return slot
        if self.next_slot < self.capacity:
            slot, self.next_slot = self.next_slot, self.next_slot + 1
        else:
            victim = next(iter(self.slot_of))
            slot = self.slot_of[victim]
            if slot in blocked:
                return None
            del self.slot_of[victim]
            self.evictions += 1
        self.slot_of[key] = slot
        return slot

    def batch(self, keys):
        """Slots of the rows before the cut."""
        seen, slots = set(), []
        for key in keys:
            slot = self.acquire(key, seen)
            if slot is None:
                break
            slots.append(slot)
            seen.add(slot)
        return slots


def _words(keys):
    """Packed key rows for small integer flow names (both words vary)."""
    return np.asarray([[k, 3 * k + 1] for k in keys], dtype=np.uint64)


def _check_batch(table, reference, keys):
    """One acquire on both tables; returns how many rows were resolved."""
    want = reference.batch(keys)
    got = table.acquire(_words(keys))
    assert got.rows == len(want) >= 1
    assert got.slots[got.rank].tolist() == want
    assert got.flows == flow_ids(_words(list(dict.fromkeys(keys[:got.rows]))))
    return got.rows


def _check_tables(table, reference):
    assert table.evictions == reference.evictions
    assert len(table) == len(reference.slot_of)
    assert dict(table._slot_of) == {
        flow_ids(_words([k]))[0]: s for k, s in reference.slot_of.items()}


class FlowSlotMachine(RuleBasedStateMachine):
    """Per-batch ``VectorFlowState.acquire`` against the per-packet loop."""

    @initialize(capacity=st.integers(1, 8))
    def start(self, capacity):
        self.table = VectorFlowState(_layout(), capacity=capacity)
        self.reference = _ReferenceTable(capacity)

    @rule(keys=st.lists(st.integers(0, 12), min_size=1, max_size=14))
    def serve_span(self, keys):
        """Resolve one batch span the way the replay loop does: after a cut,
        the rest of the span is the next batch."""
        while keys:
            keys = keys[_check_batch(self.table, self.reference, keys):]

    @invariant()
    def same_tables(self):
        if hasattr(self, "table"):
            _check_tables(self.table, self.reference)


TestFlowSlotMachine = FlowSlotMachine.TestCase
TestFlowSlotMachine.settings = settings(max_examples=150,
                                        stateful_step_count=30,
                                        deadline=None)


class TestFlowSlotTable:
    """Pinned edges of the per-batch FIFO resolution."""

    def _tables(self, capacity):
        return (VectorFlowState(_layout(), capacity=capacity),
                _ReferenceTable(capacity))

    def test_resident_evicted_earlier_in_batch_is_new_again(self):
        table, reference = self._tables(2)
        for keys in ([0], [1]):
            _check_batch(table, reference, keys)
        # 2 evicts 0 (oldest, not yet used in the batch); 0 then returns and
        # is a new flow, evicting 1.
        assert _check_batch(table, reference, [2, 0, 2]) == 3
        assert table.evictions == 2
        _check_tables(table, reference)

    def test_more_new_flows_than_capacity(self):
        table, reference = self._tables(2)
        keys = [0, 1, 2, 3, 0]
        assert _check_batch(table, reference, keys) == 2   # 2 would evict 0
        assert _check_batch(table, reference, keys[2:]) == 2
        assert _check_batch(table, reference, keys[4:]) == 1
        assert table.evictions == 3
        _check_tables(table, reference)

    def test_capacity_one(self):
        table, reference = self._tables(1)
        assert _check_batch(table, reference, [5, 5, 6, 6]) == 2
        assert _check_batch(table, reference, [6, 6, 5]) == 2
        assert _check_batch(table, reference, [5]) == 1
        assert table.evictions == 2
        _check_tables(table, reference)

    def test_memory_grows_with_live_flows(self):
        table = VectorFlowState(_layout(), capacity=1_000_000)
        table.acquire(_words(range(5)))
        assert len(table) == len(table._owner) == 5


def _wrapping_trace(n_flows=6, n_packets=12, seed=0):
    """Interleaved flows whose timestamps run past the 16-bit ``prev_ts``
    register (65,536 units of 64 us, ~4.2 s), with payloads shorter and
    longer than the 60 raw bytes the two-stage runtime reads."""
    rng = np.random.default_rng(seed)
    packets = [
        Packet(ts=float(ts), length=int(rng.integers(40, 1500)),
               key=FlowKey(10, 20 + f, 1000 + f, 80, 6),
               payload=rng.integers(0, 256, size=int(rng.integers(20, 90)),
                                    dtype=np.uint8))
        for f in range(n_flows)
        for ts in np.cumsum(rng.uniform(0.0, 1.5, size=n_packets))]
    trace = Trace(sorted(packets, key=lambda p: p.ts))
    assert (trace.ts / TS_UNIT_SECONDS).max() > 0xFFFF
    return trace


class TestRegisterAccess:
    """What a replay leaves in the registers, read through ``columns`` and
    checked against the scalar oracle's per-flow records."""

    def _replay(self, registers_match, trace=None, capacity=64, **spec):
        """A two-stage replay with a live ``prev_ts`` register: batched
        decisions equal the oracle's, and so do the registers."""
        trace = _wrapping_trace() if trace is None else trace
        labels = np.zeros(len(trace), dtype=np.int64)
        runtime = TwoStageRuntime(capacity=capacity, needs_ipd=True,
                                  **{**build_two_stage_spec(0), **spec})
        oracle = ScalarOracle.of(runtime)
        assert list(runtime.process_trace(trace, labels, batch_size=5)) \
            == oracle.replay(trace, labels)
        registers_match(runtime.state, oracle)
        return runtime, oracle

    def test_write_read(self, registers_match):
        runtime, oracle = self._replay(registers_match)
        columns = runtime.state.columns
        assert columns["prev_ts"].any() and columns["idx_hist"].any()
        assert len(oracle.flows) == 6

    def test_width_enforced(self, registers_match):
        """A tree with more leaves than ``idx_bits`` can name is clamped,
        and ``prev_ts`` wraps: no register exceeds its field width."""
        rng = np.random.default_rng(4)
        tree = FuzzyTree.fit(rng.uniform(0, 255, size=(300, 60)), n_leaves=32)
        assert tree.n_leaves > 1 << 4
        runtime, oracle = self._replay(registers_match, extractor_tree=tree)
        for f in runtime.state.layout.fields:
            assert int(runtime.state.columns[f.name].max()) < 1 << f.bits
        assert max(max(r.hist[0]) for r in oracle.flows.values()) == 15

    def test_index_bounds(self, registers_match):
        """Under eviction every live flow holds a slot below ``capacity``,
        and each register row holds its field's ``count`` entries."""
        runtime, oracle = self._replay(registers_match, capacity=3)
        state = runtime.state
        assert oracle.evictions > 0 and len(state) == len(oracle.flows) == 3
        assert sorted(state._slot_of.values()) == [0, 1, 2]
        for f in state.layout.fields:
            assert state.columns[f.name].shape == (3, f.count)
        assert all(len(r.hist[0]) == 7 for r in oracle.flows.values())

    def test_shift_in(self, registers_match):
        """After nine packets a flow's index history is its last seven
        indexes, oldest first."""
        trace = _wrapping_trace(n_flows=1, n_packets=9)
        runtime, _ = self._replay(registers_match, trace=trace)
        indexes = np.minimum(runtime.extractor_tree.predict_index(
            trace.payload_matrix(60)), 15)
        assert runtime.state.columns["idx_hist"][0].tolist() \
            == indexes[2:].tolist()

    def test_read_never_changes_state(self):
        """The oracle reads a runtime's configuration, never its registers:
        replaying it leaves the runtime's state as it was."""
        trace = _wrapping_trace()
        labels = np.zeros(len(trace), dtype=np.int64)
        runtime = TwoStageRuntime(needs_ipd=True, **build_two_stage_spec(0))
        runtime.process_trace(trace[:40], labels[:40])
        state = runtime.state
        before = ({n: c.copy() for n, c in state.columns.items()},
                  dict(state._slot_of), list(state._owner), state.evictions)
        assert scalar_replay(runtime, trace, labels)
        after = ({n: c.copy() for n, c in state.columns.items()},
                 dict(state._slot_of), list(state._owner), state.evictions)
        assert all(np.array_equal(before[0][n], after[0][n])
                   for n in before[0])
        assert before[1:] == after[1:]


class TestResourceReport:
    def test_summary_fields(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(8, 6, rng=0), nn.ReLU(), nn.Linear(6, 3, rng=1))
        for p in model.parameters():
            p.data *= 0.1
        model.eval_mode()
        x = np.floor(rng.uniform(0, 255, size=(300, 8))).astype(np.int64)
        compiled = PegasusCompiler(CompilerConfig(refine=False)) \
            .compile_sequential(model, x).compiled
        report = summarize_resources(compiled, _layout(), TOFINO2)
        assert report.stateful_bits_per_flow == 44
        assert 0 < report.sram_fraction < 1
        assert 0 < report.tcam_fraction < 1
        assert 0 < report.bus_fraction <= 1
        assert report.stages_used >= 2
        row = report.row()
        assert row["bits/flow"] == 44


class TestThroughput:
    def test_line_rate_independent_of_model(self):
        pps = line_rate_pps(TOFINO2, avg_packet_bytes=800)
        assert pps == pytest.approx(12.8e12 / (800 * 8))

    def test_smaller_packets_more_pps(self):
        assert line_rate_pps(TOFINO2, 100) > line_rate_pps(TOFINO2, 1500)

    def test_measured_throughput_positive(self):
        x = np.zeros((1000, 4))
        pps = measure_model_throughput(lambda v: v.sum(axis=1), x)
        assert pps > 0

    def test_line_rate_dwarfs_numpy(self):
        x = np.random.default_rng(0).normal(size=(2000, 16))
        w = np.random.default_rng(1).normal(size=(16, 3))
        sw = line_rate_pps(TOFINO2)
        cpu = measure_model_throughput(lambda v: np.argmax(v @ w, axis=1), x)
        assert sw / cpu > 10  # orders of magnitude in practice
