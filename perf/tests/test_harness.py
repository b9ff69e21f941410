"""Self-tests of the benchmark harness (not part of tier-1):

    python3 -m pytest perf/tests -q
"""

import inspect
import json
import subprocess
import sys
from dataclasses import replace
from multiprocessing import shared_memory
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.eval.differential import (install_fault_backend,   # noqa: E402
                                     trace_digest)
from repro.serving.engine import lookup_backends              # noqa: E402

from perf import compare, harness, hostprobe, run             # noqa: E402
from perf.hostprobe import HostProbe                          # noqa: E402
from perf.tracer import (SPAN_TABLE, UNRESOLVED, SpanDef,     # noqa: E402
                         Tracer)
from perf.workloads import WORKLOADS                          # noqa: E402


def test_seed_drives_the_workload_and_nothing_else():
    workload = WORKLOADS["mice_slots"]
    first = workload.generate(3, quick=True)
    again = workload.generate(3, quick=True)
    other = workload.generate(4, quick=True)
    assert trace_digest(first.trace) == trace_digest(again.trace)
    assert (first.labels == again.labels).all()
    assert trace_digest(first.trace) != trace_digest(other.trace)


def test_open_loop_pacing_hits_the_offered_rate_for_any_seed():
    workload = WORKLOADS["burst_open"]
    for seed in (0, 1):
        trace = workload.generate(seed, quick=True)
        config = workload.engine_config(trace)
        paced = workload.scheduled_seconds(trace, config.time_scale)
        assert trace.n_packets / paced == pytest.approx(
            workload.offered_pps, rel=1e-6)


def _repro_namespace() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, raw in vars(value).items():
                    seen[(name, attr, member)] = raw
    return seen


def test_patch_and_restore_leave_repro_untouched():
    import repro.core.mapping as mapping
    import repro.dataplane.runtime as runtime
    import repro.serving.parallel as parallel

    before = _repro_namespace()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unresolved == []
        # A function imported by name is patched where it was imported to.
        assert runtime.certified_decision_box is mapping.certified_decision_box
        assert hasattr(runtime.certified_decision_box, "__wrapped__")
        assert hasattr(parallel.shard_hash_columns, "__wrapped__")
        # An inherited method is shadowed on the class the table names.
        assert "process_trace" in vars(runtime.WindowedClassifierRuntime)
    finally:
        tracer.restore()
    after = _repro_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_path_that_is_gone_is_listed_not_fatal():
    table = SPAN_TABLE + (
        SpanDef("repro.core.fuzzy.FuzzyTree.flattened", "fuzzy.flat"),
        SpanDef("repro.serving.gone.serve", "gone.serve"),
        SpanDef("repro.serving.cache.PENDING", "cache.pending"))
    with Tracer(table) as tracer:
        assert tracer.unresolved == [
            "repro.core.fuzzy.FuzzyTree.flattened",
            "repro.serving.gone.serve", "repro.serving.cache.PENDING"]
        assert tracer.seconds("fuzzy.flat") == UNRESOLVED
        assert tracer.count("gone.serve") == UNRESOLVED
        assert tracer.count("fuzzy.index") == 0


def test_count_failed_counts_missing_differing_and_extra():
    want = [(0, 1, 1, 0.0), (1, 1, 2, 0.1), (2, 0, 0, 0.2)]
    assert harness.count_failed(want, list(want)) == 0
    assert harness.count_failed(want, want[:2]) == 1
    assert harness.count_failed(want, [want[0], (1, 1, 0, 0.1), want[2]]) == 1
    assert harness.count_failed(want, want + [(3, 0, 0, 0.3)]) == 1


def test_samples_are_scaled_to_reference_host_speed():
    class Report:
        n_packets, wall_seconds = 1000, 0.5
    measured = harness.end_to_end_sample(Report, cpu_s=0.4, host=1.0)
    slow_host = harness.end_to_end_sample(Report, cpu_s=0.4, host=2.0)
    assert measured["pps"] == 2000.0 and slow_host["pps"] == 4000.0
    assert slow_host["cpu_us_per_packet"] == measured["cpu_us_per_packet"] / 2
    assert slow_host["sojourn_p50_ms"] == measured["sojourn_p50_ms"] / 2


def test_host_probe_brackets_with_the_previous_reading():
    probe = HostProbe()
    first = probe()
    assert first > 0.0
    assert probe.bracket() == pytest.approx(
        ((first + probe._last) / 2.0) ** hostprobe.SERVE_SENSITIVITY)


@pytest.fixture
def faulty_backend():
    name = install_fault_backend("index+perf-fault", period=3, offset=1)
    yield name
    lookup_backends.unregister(name)


def test_wrong_decisions_fail_the_run(faulty_backend, monkeypatch, tmp_path,
                                      capsys):
    good = WORKLOADS["hitters_base"]
    bad = replace(good, config=replace(good.config,
                                       lookup_backend=faulty_backend))
    monkeypatch.setitem(run.WORKLOADS, "hitters_base", bad)
    status = run.main(["--workload", "hitters_base", "--quick",
                       "--out", str(tmp_path / "bad.json")])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads((tmp_path / "bad.json").read_text())
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0
    assert record["end_to_end"]["failed_fraction"]["value"] > 0


def test_quick_record_matches_benchmark_json(tmp_path, capsys):
    status = run.main(["--workload", "burst_open", "--quick",
                       "--out", str(tmp_path / "ok.json")])
    lines = capsys.readouterr().out.splitlines()
    record = json.loads((tmp_path / "ok.json").read_text())
    assert status == 0 and not [line for line in lines if "MISMATCH" in line]
    assert run.validate(record) == []
    assert record["provenance"]["seed"] == 0
    assert len(record["raw"]["pps"]) == 1
    assert record["per_layer"]["tcam.lookup_s"]["value"] == "not_exercised"
    assert record["per_layer"]["openloop.admit_calls"]["value"] > 0
    # The contract line carries numbers only, one per declared metric.
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in run.BENCHMARK["end_to_end"]}
    assert all(isinstance(m["value"], float) and m["value"] > 0
               for m in metrics.values())


def test_stop_children_leaves_no_process_behind():
    """What the parallel topology leaves (the shared-memory resource tracker)
    and a child that was never closed are both ended and reaped."""
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    stray = subprocess.Popen(["sleep", "60"])
    assert stray.pid in harness._child_pids()
    assert len(harness._child_pids()) >= 2          # ... and the tracker
    harness.stop_children()
    assert harness._child_pids() == []


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.2 for v in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(steady, faster, "higher", 0.1)[1] == "improved"
    assert compare.verdict(steady, faster, "lower", 0.1)[1] == "regressed"
    assert compare.verdict(steady, steady[::-1], "higher", 0.1)[1] \
        == "unchanged"
    assert compare.verdict(noisy, noisy[::-1], "higher", 0.1)[1] \
        == "unresolved"
    # Noisy, but every run of B beats every run of A: resolved after all.
    assert compare.verdict(noisy, [v + 200 for v in noisy], "higher",
                           0.1)[1] == "improved"
