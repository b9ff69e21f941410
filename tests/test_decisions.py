"""The columnar decision stream: ``DecisionBatch`` algebra and its contract.

A batch is four aligned columns in the schema dtypes; concatenation,
``seq`` remaps and lazy ``PacketDecision`` materialisation must be exact,
and a batched replay read back as objects must be the scalar oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.decisions import DecisionBatch, PacketDecision
from repro.dataplane.runtime import WindowedClassifierRuntime, flows_to_trace
from repro.dataplane.schema import DECISION_COLUMNS
from repro.eval.oracle import ScalarOracle

FIELDS = ("seq", "flow_label", "predicted", "ts")


def _batch(seed: int, n: int) -> DecisionBatch:
    rng = np.random.default_rng(seed)
    return DecisionBatch(
        seq=np.sort(rng.choice(4 * n + 1, size=n, replace=False)),
        flow_label=rng.integers(-1, 5, size=n),
        predicted=rng.integers(0, 5, size=n),
        ts=rng.uniform(0.0, 100.0, size=n))


def _assert_same(a: DecisionBatch, b: DecisionBatch) -> None:
    for name in FIELDS:
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert np.array_equal(getattr(a, name), getattr(b, name))


class TestDecisionBatchAlgebra:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31), st.integers(0, 64),
           st.lists(st.integers(0, 64), max_size=8))
    def test_concat_of_chunk_splits_is_the_batch(self, seed, n, cuts):
        batch = _batch(seed, n)
        bounds = [0, *sorted(min(c, n) for c in cuts), n]
        parts = [batch[a:b] for a, b in zip(bounds, bounds[1:])]
        _assert_same(DecisionBatch.concat(parts), batch)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31), st.integers(0, 64))
    def test_remap_then_inverse_is_identity(self, seed, n):
        batch = _batch(seed, n)
        perm = np.random.default_rng(seed + 1).permutation(4 * n + 1)
        moved = batch.remap(perm)
        assert np.array_equal(moved.seq, perm[batch.seq])
        _assert_same(moved.remap(np.argsort(perm)), batch)

    def test_empty_batch_has_declared_dtypes(self):
        empty = DecisionBatch.concat([])
        assert len(empty) == 0 and list(empty) == []
        for name in FIELDS:
            assert getattr(empty, name).dtype == \
                DECISION_COLUMNS.np_dtype(name)

    def test_objects_are_built_on_read(self):
        batch = _batch(3, 5)
        objects = list(batch)
        assert objects[-1] == batch[-1] == batch[4]
        assert objects == [PacketDecision(int(f), int(p), float(t), int(s))
                           for s, f, p, t in zip(batch.seq, batch.flow_label,
                                                 batch.predicted, batch.ts)]
        _assert_same(DecisionBatch.from_decisions(objects), batch)

    def test_no_value_equality(self):
        batch = _batch(0, 3)
        assert batch != _batch(0, 3)        # compare list(batch) instead
        assert list(batch) == list(_batch(0, 3))


@pytest.mark.parametrize("capacity", [1_000_000, 4])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_iteration_is_the_scalar_oracle(compiled16, replay_flows, batch_size,
                                        capacity):
    runtime = WindowedClassifierRuntime(compiled16, feature_mode="stats",
                                        capacity=capacity,
                                        batch_size=batch_size)
    oracle = ScalarOracle.of(runtime)
    ref = oracle.replay(*flows_to_trace(replay_flows))
    got = runtime.process_flows(replay_flows)
    assert isinstance(got, DecisionBatch) and len(got) > 0
    assert list(got) == ref
    assert runtime.state.evictions == oracle.evictions
    if capacity == 4:
        assert runtime.state.evictions > 0
