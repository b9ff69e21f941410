"""Golden-replay regression fixtures: committed traces + decision digests.

Each golden pins one tiny seeded scenario workload end to end:

- the **generator**: re-materializing the scenario must reproduce the
  committed SPCAP1 trace byte-for-byte (and the label column's digest);
- the **serving stack**: replaying the workload through the local reference
  engine of each runtime kind must reproduce the committed decision digest.

Any intentional change to either side is made by rerunning
``scripts/refresh_goldens.py`` and committing the refreshed fixtures.
"""

import json
from pathlib import Path

import pytest

from repro.eval.differential import (default_sources, labels_digest,
                                     replay_digests, trace_digest,
                                     two_level_replay)
from repro.net import build_scenario, read_trace, trace_to_bytes

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = FIXTURES / "scenario_goldens.json"

pytestmark = pytest.mark.golden


def _goldens() -> list[tuple[str, dict]]:
    manifest = json.loads(MANIFEST.read_text())
    return sorted(manifest["goldens"].items())


@pytest.fixture(scope="module")
def sources():
    return default_sources(seed=0)


@pytest.mark.parametrize("key,golden", _goldens())
class TestGoldenReplay:
    def _workload(self, golden):
        return build_scenario(golden["scenario"]).generate(
            seed=golden["seed"], flows_scale=golden["flows_scale"])

    def test_generator_reproduces_committed_trace(self, key, golden):
        workload = self._workload(golden)
        assert workload.n_packets == golden["n_packets"]
        assert [s.name for s in workload.phases] == golden["phases"]
        committed = (FIXTURES / golden["trace"]).read_bytes()
        assert trace_to_bytes(workload.trace) == committed, \
            f"{key}: scenario generator drifted from the committed trace " \
            "(rerun scripts/refresh_goldens.py if intentional)"
        assert trace_digest(workload.trace) == golden["trace_sha256"]
        assert labels_digest(workload.labels) == golden["labels_sha256"]

    def test_committed_trace_roundtrips(self, key, golden):
        trace = read_trace(FIXTURES / golden["trace"])
        assert len(trace.packets) == golden["n_packets"]
        assert trace_digest(trace) == golden["trace_sha256"]

    def test_decision_digests(self, key, golden, sources):
        workload = self._workload(golden)
        got = replay_digests(workload, sources=sources)
        assert got == golden["decisions"], \
            f"{key}: serving stack decisions drifted from the golden " \
            "(rerun scripts/refresh_goldens.py if intentional)"

    def test_two_level_pruned_fast_path_is_bit_identical(self, key, golden,
                                                         sources):
        """The maximal fast path (l1+l2 cache + pruned TCAM, windowed only)
        must reproduce the pinned reference digest on every golden workload
        — an unsound approximate hit or a dropped TCAM candidate row fails
        here."""
        workload = self._workload(golden)
        fast = two_level_replay(workload, sources=sources)
        assert list(fast) == ["windowed"]
        for kind, got in fast.items():
            ref = golden["decisions"][kind]
            assert got["digest"] == ref["digest"], \
                f"{key}/{kind}: l1+l2 + tcam-pruned changed decisions"
            assert got["n_decisions"] == ref["n_decisions"]
        if "cache_counters" in golden:
            got = {kind: fast[kind]["counters"] for kind in fast}
            assert got == golden["cache_counters"], \
                f"{key}: two-level cache counter stream drifted " \
                "(rerun scripts/refresh_goldens.py if intentional)"
