"""Shared fixtures for the batched-runtime and serving tests."""

import numpy as np
import pytest

from repro import nn
from repro.core import PegasusCompiler, CompilerConfig
from repro.net import make_dataset
from repro.net.packet import Packet
from repro.net.traces import Trace, flow_ids


@pytest.fixture(scope="session")
def compiled16():
    """A small compiled 16-input 3-class model (fits both seq and stats views)."""
    rng = np.random.default_rng(0)
    model = nn.Sequential(nn.Linear(16, 8, rng=0), nn.ReLU(), nn.Linear(8, 3, rng=1))
    for p in model.parameters():
        p.data *= 0.1
    model.eval_mode()
    x = np.floor(rng.uniform(0, 255, size=(400, 16))).astype(np.int64)
    return PegasusCompiler(CompilerConfig(refine=False)).compile_sequential(model, x).compiled


@pytest.fixture(scope="session")
def replay_flows():
    """A small interleaved multi-flow trace workload (24 flows)."""
    return make_dataset("peerrush", flows_per_class=8, seed=0).flows


def _assert_registers_match(state, oracle):
    """``state`` holds exactly the oracle's per-flow state: the same live
    flows and evictions, and every register row of a live flow equal to its
    record (history lanes zero-filled, oldest first)."""
    assert state.evictions == oracle.evictions
    keys = Trace([Packet(ts=0.0, length=0, key=key) for key in oracle.flows])
    records = dict(zip(flow_ids(keys.key_words), oracle.flows.values()))
    assert state._slot_of.keys() == records.keys()
    for flow, record in records.items():
        slot = state._slot_of[flow]
        want = {"count": [record.count], "prev_ts": [record.prev_ts],
                **dict(zip(oracle.lanes, record.hist))}
        for name, column in state.columns.items():
            assert column[slot].tolist() == want[name], (name, slot)


@pytest.fixture(scope="session")
def registers_match():
    """``registers_match(state, oracle)``: assert a runtime's registers
    equal a :class:`repro.eval.oracle.ScalarOracle`'s per-flow records."""
    return _assert_registers_match
