"""The declared columnar wire format (``repro.dataplane.schema``).

Three layers:

1. **Validator semantics** — ``validate_columns`` accepts exactly the
   declared dtypes/ranks, rejects drift with a picklable
   :class:`~repro.errors.SchemaError` naming schema + column + reason, and
   honors the ``REPRO_WIRE_VALIDATE`` debug gate.
2. **Coverage of the hot paths** — every producer/consumer boundary
   (``Trace.to_columns`` / ``from_columns``, the sharded split, the
   parallel split, worker replies, the decision merge) actually calls the
   validator; a counter-instrumented run proves it, and a drifted column
   injected at each boundary is caught.
3. **Merge correctness** — the preallocated scatter-merge reproduces the
   decisions the concatenate+argsort merge produced, bit-identically.
"""

import numpy as np
import pytest

from repro.dataplane.runtime import WindowedClassifierRuntime, flows_to_trace
from repro.dataplane.schema import (DECISION_COLUMNS, WIRE_COLUMNS,
                                    ColumnSchema, ColumnSpec, decision_dtype,
                                    set_validation, validation_enabled,
                                    wire_dtype)
from repro.errors import PegasusError, SchemaError
from repro.net.traces import Trace
from repro.serving import BatchScheduler
from repro.serving.dispatcher import ShardedDispatcher
from repro.serving.parallel import ParallelDispatcher
from repro.serving.rings import scatter_decision_chunk


def _runtime_factory(compiled16):
    def build():
        return WindowedClassifierRuntime(compiled16, feature_mode="stats",
                                         batch_size=32)
    return build


@pytest.fixture(autouse=True)
def _validation_on():
    previous = set_validation(True)
    yield
    set_validation(previous)


def good_wire_columns(n=4):
    return {
        "ts": np.arange(n, dtype=np.float64),
        "length": np.full(n, 60, dtype=np.int64),
        "src_ip": np.arange(n, dtype=np.int64),
        "dst_ip": np.arange(n, dtype=np.int64),
        "src_port": np.arange(n, dtype=np.int64),
        "dst_port": np.arange(n, dtype=np.int64),
        "proto": np.full(n, 6, dtype=np.int64),
    }


class TestSchemaDeclaration:
    def test_wire_schema_declares_the_documented_columns(self):
        assert set(WIRE_COLUMNS.columns) == {
            "ts", "length", "src_ip", "dst_ip", "src_port", "dst_port",
            "proto", "labels", "payload"}
        assert WIRE_COLUMNS.np_dtype("ts") == np.dtype(np.float64)
        assert WIRE_COLUMNS.np_dtype("length") == np.dtype(np.int64)
        assert WIRE_COLUMNS.columns["payload"].rank == 2
        assert WIRE_COLUMNS.columns["payload"].nullable
        assert WIRE_COLUMNS.columns["labels"].nullable

    def test_decision_schema(self):
        assert set(DECISION_COLUMNS.columns) == {"seq", "flow_label",
                                                 "predicted", "ts"}
        assert decision_dtype("seq") == np.dtype(np.int64)
        assert decision_dtype("ts") == np.dtype(np.float64)

    def test_required_excludes_nullable(self):
        assert set(WIRE_COLUMNS.required()) == {
            "ts", "length", "src_ip", "dst_ip", "src_port", "dst_port",
            "proto"}

    def test_schema_is_frozen(self):
        with pytest.raises(TypeError):
            WIRE_COLUMNS.columns["ts"] = ColumnSpec("int64")
        with pytest.raises((AttributeError, TypeError)):
            WIRE_COLUMNS.name = "other"

    def test_wire_dtype_unknown_column_raises(self):
        with pytest.raises(KeyError):
            wire_dtype("no_such_column")


class TestValidateColumns:
    def test_accepts_declared_layout(self):
        WIRE_COLUMNS.validate_columns(good_wire_columns())

    def test_rejects_dtype_drift(self):
        cols = good_wire_columns()
        cols["length"] = cols["length"].astype(np.float32)
        with pytest.raises(SchemaError, match="length"):
            WIRE_COLUMNS.validate_columns(cols)

    def test_rejects_rank_drift(self):
        cols = good_wire_columns()
        cols["ts"] = cols["ts"].reshape(1, -1)
        with pytest.raises(SchemaError, match="ts"):
            WIRE_COLUMNS.validate_columns(cols)

    def test_rejects_missing_required_column(self):
        cols = good_wire_columns()
        del cols["proto"]
        with pytest.raises(SchemaError, match="proto"):
            WIRE_COLUMNS.validate_columns(cols)

    def test_rejects_undeclared_column(self):
        cols = good_wire_columns()
        cols["mystery"] = np.zeros(4)
        with pytest.raises(SchemaError, match="mystery"):
            WIRE_COLUMNS.validate_columns(cols)

    def test_rejects_non_ndarray(self):
        cols = good_wire_columns()
        cols["ts"] = list(cols["ts"])
        with pytest.raises(SchemaError, match="ts"):
            WIRE_COLUMNS.validate_columns(cols)

    def test_nullable_columns_are_optional(self):
        cols = good_wire_columns()
        WIRE_COLUMNS.validate_columns(cols)          # no labels/payload: fine
        cols["labels"] = np.zeros(4, dtype=np.int64)
        cols["payload"] = np.zeros((4, 8), dtype=np.float64)
        WIRE_COLUMNS.validate_columns(cols)

    def test_require_subset(self):
        WIRE_COLUMNS.validate_columns(
            {"ts": np.zeros(3, dtype=np.float64)}, require=("ts",))

    def test_error_carries_context_and_pickles(self):
        cols = good_wire_columns()
        cols["ts"] = cols["ts"].astype(np.float32)
        with pytest.raises(SchemaError) as exc_info:
            WIRE_COLUMNS.validate_columns(cols, context="unit test")
        err = exc_info.value
        assert err.schema == "wire" and err.column == "ts"
        assert "unit test" in str(err)
        assert isinstance(err, PegasusError)
        import pickle
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.schema, clone.column, clone.context) == \
            (err.schema, err.column, err.context)

    def test_gate_disables_validation(self):
        cols = good_wire_columns()
        cols["ts"] = cols["ts"].astype(np.float32)
        previous = set_validation(False)
        try:
            assert not validation_enabled()
            WIRE_COLUMNS.validate_columns(cols)      # no-op when disabled
        finally:
            set_validation(previous)
        with pytest.raises(SchemaError):
            WIRE_COLUMNS.validate_columns(cols)

    def test_custom_schema_roundtrip(self):
        schema = ColumnSchema("custom", {"x": ColumnSpec("uint8", 2)})
        schema.validate_columns({"x": np.zeros((2, 3), dtype=np.uint8)})
        with pytest.raises(SchemaError, match="x"):
            schema.validate_columns({"x": np.zeros((2, 3), dtype=np.uint16)})


def _count_validations(monkeypatch):
    calls = []
    original = ColumnSchema.validate_columns

    def counting(self, cols, require=None, context=""):
        calls.append((self.name, context))
        return original(self, cols, require=require, context=context)

    monkeypatch.setattr(ColumnSchema, "validate_columns", counting)
    return calls


class TestHotPathCoverage:
    def test_trace_round_trip_validates_both_directions(self, replay_flows,
                                                        monkeypatch):
        trace = Trace.from_flows(replay_flows)
        calls = _count_validations(monkeypatch)
        cols = trace.to_columns()
        assert ("wire", "Trace.to_columns") in calls
        Trace.from_columns(cols)
        assert ("wire", "Trace.from_columns") in calls

    def test_from_columns_rejects_drifted_input(self, replay_flows):
        trace = Trace.from_flows(replay_flows)
        cols = trace.to_columns()
        cols["ts"] = cols["ts"].astype(np.float32)
        with pytest.raises(SchemaError, match="ts"):
            Trace.from_columns(cols)

    def test_sharded_split_validates(self, compiled16, replay_flows,
                                     monkeypatch):
        trace, keys, labels = flows_to_trace(replay_flows)
        dispatcher = ShardedDispatcher(
            n_shards=2, runtime_factory=_runtime_factory(compiled16),
            scheduler=BatchScheduler(batch_size=32))
        calls = _count_validations(monkeypatch)
        dispatcher.serve_trace(trace, labels=labels, keys=keys)
        assert any(ctx == "ShardedDispatcher shard split"
                   for _, ctx in calls)

    def test_parallel_split_replies_and_merge_validate(self, compiled16,
                                                       replay_flows,
                                                       monkeypatch):
        trace, _keys, labels = flows_to_trace(replay_flows)
        calls = _count_validations(monkeypatch)
        with ParallelDispatcher(
                runtime_factory=_runtime_factory(compiled16), n_workers=2,
                scheduler=BatchScheduler(batch_size=32)) as dispatcher:
            dispatcher.serve_trace(trace, labels=labels)
        split_calls = [ctx for name, ctx in calls
                       if name == "wire" and "shard split" in ctx]
        reply_calls = [ctx for name, ctx in calls
                       if name == "decision" and "reply" in ctx]
        assert split_calls == ["ParallelDispatcher shard split"]
        assert reply_calls

    def test_parallel_rejects_drifted_reply(self, monkeypatch):
        reply = {"seq": np.arange(3, dtype=np.int64),
                 "flow_label": np.arange(3, dtype=np.int64),
                 "predicted": np.zeros(3, dtype=np.float32),   # drifted
                 "ts": np.zeros(3, dtype=np.float64)}
        with pytest.raises(SchemaError, match="predicted"):
            DECISION_COLUMNS.validate_columns(
                reply, require=("seq", "flow_label", "predicted", "ts"))


def _empty_merge(n):
    merged = {name: np.zeros(n, dtype=decision_dtype(name))
              for name in ("seq", "flow_label", "predicted", "ts")}
    return merged, np.zeros(n, dtype=np.bool_)


class TestDecisionMerge:
    def test_scatter_merge_matches_manual_sort(self):
        """Chunk scatters from two interleaved shards rebuild the exact
        global-order columns a concatenate+argsort merge would produce."""
        rng = np.random.default_rng(7)
        n = 50
        order = rng.permutation(n)
        merged, valid = _empty_merge(n)
        for half in (order[:27], order[27:]):
            gseq = np.asarray(half, dtype=np.int64)
            views = {"flow_label": gseq * 3,
                     "predicted": gseq % 5,
                     "ts": np.asarray(half, dtype=np.float64) / 8.0}
            scatter_decision_chunk(merged, valid, gseq, views, len(half))
        assert valid.all()
        np.testing.assert_array_equal(merged["seq"], np.arange(n))
        np.testing.assert_array_equal(merged["flow_label"],
                                      np.arange(n) * 3)
        np.testing.assert_array_equal(merged["predicted"], np.arange(n) % 5)
        np.testing.assert_array_equal(merged["ts"], np.arange(n) / 8.0)
        for name in ("seq", "flow_label", "predicted"):
            assert merged[name].dtype == decision_dtype(name)

    def test_partial_coverage_leaves_invalid_rows(self):
        merged, valid = _empty_merge(6)
        views = {"flow_label": np.array([42], dtype=np.int64),
                 "predicted": np.array([1], dtype=np.int64),
                 "ts": np.array([0.5], dtype=np.float64)}
        scatter_decision_chunk(merged, valid,
                               np.array([3], dtype=np.int64), views, 1)
        assert valid.tolist() == [False, False, False, True, False, False]
        assert np.flatnonzero(valid).tolist() == [3]
        assert merged["flow_label"][3] == 42

    def test_egress_slot_tail_is_ignored(self):
        """Only the first ``rows`` entries of an egress slot are scattered —
        stale data past the chunk's decision count never leaks through."""
        merged, valid = _empty_merge(4)
        views = {"flow_label": np.array([7, 99], dtype=np.int64),
                 "predicted": np.array([2, 99], dtype=np.int64),
                 "ts": np.array([0.25, 99.0], dtype=np.float64)}
        scatter_decision_chunk(merged, valid,
                               np.array([1], dtype=np.int64), views, 1)
        assert valid.tolist() == [False, True, False, False]
        assert merged["flow_label"][1] == 7 and 99 not in merged["flow_label"]

    def test_parallel_decisions_bit_identical_to_sharded(self, compiled16,
                                                         replay_flows):
        trace, keys, labels = flows_to_trace(replay_flows)
        serial = ShardedDispatcher(
            n_shards=2, runtime_factory=_runtime_factory(compiled16),
            scheduler=BatchScheduler(batch_size=32)
        ).serve_trace(trace, labels=labels, keys=keys)
        with ParallelDispatcher(
                runtime_factory=_runtime_factory(compiled16), n_workers=2,
                scheduler=BatchScheduler(batch_size=32)) as dispatcher:
            par = dispatcher.serve_trace(trace, labels=labels)
        assert [(d.seq, d.flow_label, d.predicted, d.ts) for d in par] == \
            [(d.seq, d.flow_label, d.predicted, d.ts) for d in serial]
