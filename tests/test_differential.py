"""Differential replay harness: matrix identity, fault catching, shrinking."""

import json

import numpy as np
import pytest

import repro.dataplane.runtime as runtime_module
from repro.eval import differential as dfl
from repro.eval.oracle import ScalarOracle
from repro.net import build_scenario, read_trace, scenario_names
from repro.serving.engine import lookup_backends


@pytest.fixture(scope="module")
def sources():
    return dfl.default_sources(seed=0)


@pytest.fixture(scope="module")
def workload():
    return build_scenario("microburst").generate(seed=5, flows_scale=0.2)


class TestMatrix:
    @pytest.fixture(autouse=True)
    def short_steps(self, monkeypatch):
        """Local and sharded cases step 48-row spans, so register steps
        still cut inside these few-hundred-packet traces."""
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", 48)

    def test_build_cases_covers_every_axis(self):
        """23 cases, and no axis point the rotation could starve: each kind
        serves exactly its own (backend, cache) pairs, every pair appears
        locally and scaled out, every scaled-out topology runs at every
        worker count, and the quick matrix reaches every topology per
        runtime."""
        topologies = {"local", "sharded", "parallel"}
        worker_counts = (1, 2)
        cases = dfl.build_cases(worker_counts=worker_counts)
        assert len(cases) == 23
        assert len({c.label for c in cases}) == len(cases)
        assert all(c.n_workers == 1 for c in cases if c.topology == "local")
        assert set(dfl.RUNTIME_BACKENDS) == set(dfl.RUNTIME_CACHES) \
            == set(dfl.RUNTIME_KINDS)
        assert dfl.RUNTIME_CACHES["two_stage"] == ("off",)
        for kind in dfl.RUNTIME_KINDS:
            pairs = {(b, c) for b in dfl.RUNTIME_BACKENDS[kind]
                     for c in dfl.RUNTIME_CACHES[kind]}
            mine = [c for c in cases if c.runtime == kind]
            local = {(c.lookup_backend, c.decision_cache) for c in mine
                     if c.topology == "local"}
            scaled = {(c.lookup_backend, c.decision_cache) for c in mine
                      if c.topology != "local"}
            assert local == scaled == pairs, kind
            for topology in ("sharded", "parallel"):
                assert {c.n_workers for c in mine
                        if c.topology == topology} == set(worker_counts), \
                    (kind, topology)
        assert sum(c.runtime == "windowed" for c in cases) == 18
        assert sum(c.runtime == "two_stage" for c in cases) == 5
        quick = dfl.quick_cases()
        assert len({c.label for c in quick}) == len(quick)
        for kind in dfl.RUNTIME_KINDS:
            assert {c.topology for c in quick if c.runtime == kind} == \
                topologies, kind
            assert {c.decision_cache for c in quick if c.runtime == kind} \
                <= set(dfl.RUNTIME_CACHES[kind])
        for case in cases + quick:
            case.config()           # every point is a valid EngineConfig

    def test_case_config_roundtrip(self):
        case = dfl.EngineCase("windowed", "sharded", 2, "tcam-pruned", "l1",
                              32)
        assert case.cached
        config = case.config()
        assert (config.topology, config.n_workers) == ("sharded", 2)
        assert config.lookup_backend == "tcam-pruned"
        assert config.decision_cache == "l1" and config.batch_size == 32
        two = dfl.EngineCase(decision_cache="l1+l2")
        assert two.config().decision_cache == "l1+l2"
        off = dfl.EngineCase(decision_cache="off")
        assert not off.cached

    @pytest.mark.parametrize("family", ["heavy_hitters", "flow_churn"])
    def test_quick_matrix_bit_identical(self, sources, family):
        w = build_scenario(family).generate(seed=11, flows_scale=0.2)
        report = dfl.run_differential(w, sources=sources,
                                      cases=dfl.quick_cases())
        assert report.ok, report.summary()
        assert report.decisions_match and report.stats_consistent
        assert all(r["match"] for r in report.rows)

    def test_full_matrix_every_family(self, sources):
        """The acceptance bit: the FULL topology x cache x lookup_backend x
        runtime matrix (parallel workers included) is bit-identical to the
        scalar reference on every registered scenario family."""
        cases = dfl.build_cases()
        for family in scenario_names():
            w = build_scenario(family).generate(seed=13, flows_scale=0.12)
            report = dfl.run_differential(w, sources=sources, cases=cases)
            assert report.ok, (family, report.summary())

    def test_full_matrix_single_runtime(self, sources, workload):
        cases = dfl.build_cases(runtimes=("windowed",),
                                worker_counts=(1, 2),
                                include_parallel=False)
        report = dfl.run_differential(workload, sources=sources, cases=cases)
        assert report.ok, report.summary()
        cached = [r for r in report.rows if r["cache"] is not None]
        assert cached and all(len(r["cache"]) == 4 for r in cached)
        # one cache lookup per decision, split across exact/approx/miss
        for r in cached:
            exact, approx, misses, _ = r["cache"]
            assert exact + approx + misses == r["n_decisions"], r
        # eviction-free: every cached config agrees on exact (L1) hits,
        # whatever the backend, topology, or L2 setting
        assert len({r["cache"][0] for r in cached}) == 1
        # within one replica layout the FULL counter tuple is identical
        # across lookup backends (they never touch the cache)
        by_layout = {}
        for r in cached:
            key = (r["cache_mode"], r["topology"], r["n_workers"])
            by_layout.setdefault(key, set()).add(r["cache"])
        assert all(len(tuples) == 1 for tuples in by_layout.values()), \
            by_layout
        # the l1+l2 rows actually exercised the approximate path
        assert any(r["cache"][1] > 0 for r in cached
                   if r["cache_mode"] == "l1+l2")

    def test_report_summaries(self, sources, workload):
        report = dfl.run_differential(
            workload, sources=sources,
            cases=[dfl.EngineCase(batch_size=48)])
        s = report.summary()
        assert s["scenario"] == workload.scenario
        assert s["decisions_match"] and s["stats_consistent"]
        fuzz = dfl.FuzzReport(trials=[{"ok": True}], seconds=1.0)
        fs = fuzz.summary()
        assert fs["ok"] and fs["trials"] == 1

    def test_first_divergence_length_mismatch(self, sources, workload):
        ref = dfl.scalar_reference(sources["windowed"], "windowed",
                                   workload.trace, workload.labels)
        div = dfl.first_divergence(ref, ref[:-1], "case-x")
        assert div is not None and div.index == len(ref) - 1
        assert div.got is None and "case-x" in div.describe()
        assert dfl.first_divergence(ref, list(ref), "y") is None

    def test_stat_notes_flag_inconsistency(self):
        rows = [
            {"case": "a", "runtime": "windowed", "topology": "local",
             "n_workers": 1, "batch_size": 64,
             "cache_mode": "l1", "n_decisions": 10, "match": True,
             "cache": (4, 5, 0, 0), "flushes": 3},
            {"case": "b", "runtime": "windowed", "topology": "sharded",
             "n_workers": 1, "batch_size": 64,
             "cache_mode": "l1", "n_decisions": 9, "match": True,
             "cache": (3, 6, 0, 0), "flushes": 4},
        ]
        notes: list[str] = []
        dfl._check_stats(rows, notes)
        assert any("cache lookups" in n for n in notes)        # 4+5+0 != 10
        assert any("disagree" in n for n in notes)             # exact 4 vs 3
        assert any("counters diverge" in n for n in notes)     # same layout
        assert any("flush totals" in n for n in notes)

    def test_flush_totals_keyed_by_replica_count(self):
        """``sharded`` and ``parallel`` at one worker count step the same
        spans, so their flush totals must agree; different counts may not."""
        def row(case, topology, n_workers, flushes):
            return {"case": case, "runtime": "windowed",
                    "topology": topology, "n_workers": n_workers,
                    "cache": None, "flushes": flushes}

        notes: list[str] = []
        dfl._check_stats([row("s2", "sharded", 2, 5),
                          row("p2", "parallel", 2, 6)], notes)
        assert notes and "('windowed', 2)" in notes[0]
        notes = []
        dfl._check_stats([row("s1", "local", 1, 3),
                          row("p2", "parallel", 2, 4)], notes)
        assert notes == []


class TestScalarReference:
    def test_reference_matches_engine_local(self, sources, workload):
        ref = dfl.scalar_reference(sources["windowed"], "windowed",
                                   workload.trace, workload.labels)
        from repro.serving import PegasusEngine
        case = dfl.EngineCase()
        with PegasusEngine(source=sources["windowed"],
                           config=case.config()) as eng:
            got = eng.serve(workload.trace, labels=workload.labels)
        assert list(got.decisions) == ref

    def test_scalar_replay_positions_and_carried_state(self, sources,
                                                       workload):
        """``positions`` relabels ``seq`` only; a second ``replay`` of one
        oracle continues from its state, exactly like one call over the
        whole trace."""
        from repro.serving import PegasusEngine
        trace, labels = workload.trace, workload.labels
        whole = dfl.scalar_reference(sources["two_stage"], "two_stage",
                                     trace, labels)
        assert whole
        shifted = dfl.scalar_reference(sources["two_stage"], "two_stage",
                                       trace, labels,
                                       positions=np.arange(len(trace)) + 5)
        assert [d.seq for d in shifted] == [d.seq + 5 for d in whole]
        replica = PegasusEngine(
            source=sources["two_stage"], runtime="two_stage",
            capacity=dfl.DEFAULT_CAPACITY)._replica_factory()
        oracle = ScalarOracle.of(replica)
        half = len(trace) // 2
        first = oracle.replay(trace[:half], labels[:half])
        rest = oracle.replay(trace[half:], labels[half:],
                             positions=np.arange(half, len(trace)))
        assert first + rest == whole

    def test_two_stage_spec_deterministic(self):
        a = dfl.build_two_stage_spec(seed=3)
        b = dfl.build_two_stage_spec(seed=3)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a["slot_values"], b["slot_values"]))


class TestFaultInjection:
    @pytest.fixture()
    def fault(self):
        name = dfl.install_fault_backend("index+fault-test", period=7,
                                         offset=3)
        yield name
        lookup_backends.unregister(name)

    def test_fault_is_caught(self, sources, workload, fault):
        case = dfl.EngineCase("windowed", "local", 1, fault, "off", 64)
        report = dfl.run_differential(workload, sources=sources, cases=[case])
        assert not report.ok
        assert report.divergences and report.divergences[0].case == case.label
        assert "divergence at decision" in report.divergences[0].describe()

    def test_fault_shrinks_to_minimal_trace(self, sources, workload, fault):
        case = dfl.EngineCase("windowed", "local", 1, fault, "off", 64)
        failing = dfl.make_failing_predicate(case, sources["windowed"])
        assert failing(workload.trace, workload.labels)
        shrunk, labels = dfl.shrink_failing_trace(
            workload.trace, workload.labels, failing, max_evals=150)
        # still failing, and minimal: a decision needs a full window-8 flow
        assert failing(shrunk, labels)
        assert len(shrunk.packets) < workload.n_packets
        assert len(shrunk.packets) <= 16
        assert len(labels) == len(shrunk.packets)

    def test_fuzz_finds_and_writes_artifact(self, sources, fault, tmp_path):
        cases = [dfl.EngineCase("windowed", "local", 1, "index", "off", 64),
                 dfl.EngineCase("windowed", "local", 1, fault, "off", 64)]
        report = dfl.fuzz_differential(
            n_seeds=0, budget_seconds=120.0, base_seed=5,
            scenarios=("diurnal",), cases=cases, sources=sources,
            flows_scale=0.2, out_dir=tmp_path, shrink_evals=120)
        assert not report.ok and len(report.findings) == 1
        finding = report.findings[0]
        assert finding.case == cases[1].label
        assert finding.shrunk_packets < finding.original_packets
        # artifact round-trips: committed trace re-fails the harness
        meta = json.loads((tmp_path / "finding0_diurnal_s5.json").read_text())
        assert meta["shrunk_packets"] == finding.shrunk_packets
        trace = read_trace(finding.trace_path)
        assert len(trace.packets) == finding.shrunk_packets
        assert dfl.trace_digest(trace) == meta["trace_sha256"]
        failing = dfl.make_failing_predicate(cases[1], sources["windowed"])
        assert failing(trace, np.asarray(meta["labels"], dtype=np.int64))


class TestFuzzClean:
    def test_fuzz_clean_matrix_passes(self, sources):
        rows = []
        report = dfl.fuzz_differential(
            n_seeds=1, budget_seconds=120.0, base_seed=0,
            scenarios=("flow_churn",),
            cases=[dfl.EngineCase("windowed", "local", 1, "index", "l1", 48),
                   dfl.EngineCase("windowed", "sharded", 2, "tcam-pruned",
                                  "off", 48)],
            sources=sources, flows_scale=0.15,
            progress=rows.append)
        assert report.ok and len(report.trials) == 2 == len(rows)
        assert all(t["ok"] for t in report.trials)

    def test_fuzz_budget_timeboxed(self, sources):
        report = dfl.fuzz_differential(
            n_seeds=50, budget_seconds=0.0, base_seed=0,
            cases=[dfl.EngineCase()], sources=sources)
        assert report.budget_exhausted
        assert len(report.trials) == 0


class TestDigests:
    def test_decision_digest_sensitive(self, sources, workload):
        ref = dfl.scalar_reference(sources["windowed"], "windowed",
                                   workload.trace, workload.labels)
        d1 = dfl.decision_digest(ref)
        assert d1 == dfl.decision_digest(list(ref))
        import copy
        mutated = copy.deepcopy(ref)
        mutated[0].predicted ^= 1
        assert dfl.decision_digest(mutated) != d1

    def test_trace_digest_matches_file_bytes(self, workload, tmp_path):
        import hashlib

        from repro.net import write_trace
        path = tmp_path / "w.spcap"
        write_trace(workload.trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            dfl.trace_digest(workload.trace)


class TestCLI:
    def test_main_clean_exit(self, capsys):
        rc = dfl.main(["--seeds", "0", "--budget-seconds", "60",
                       "--flows-scale", "0.12", "--scenarios", "microburst"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out

    def test_scenario_rotation_covers_families(self):
        # the CLI default rotates round-robin over every registered family
        assert len(scenario_names()) >= 6
