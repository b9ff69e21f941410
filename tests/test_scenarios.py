"""Scenario workload subsystem: DSL, registry, reproducibility, serving."""

import numpy as np
import pytest

from repro.net import build_scenario, scenario_names
from repro.net.scenarios import (PhaseDef, Scenario, TrafficBand,
                                 lerp_profile, register_scenario,
                                 unregister_scenario)
from repro.net.synth.base import generate_flow, random_flow_key
from repro.net.synth.profiles import dataset_profiles
from repro.serving import EngineConfig, PegasusEngine

BUILTIN_FAMILIES = ("attack_flood", "concept_drift", "diurnal",
                    "flow_churn", "heavy_hitters", "microburst")


def tiny(name, seed=0, scale=0.25):
    return build_scenario(name).generate(seed=seed, flows_scale=scale)


class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(BUILTIN_FAMILIES) <= set(scenario_names())
        assert len(scenario_names()) >= 6

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("nope")

    def test_one_call_registration(self):
        profile = dataset_profiles("peerrush")[0]
        register_scenario("tmp-custom", lambda flows=4, **_: Scenario(
            name="tmp-custom",
            phases=(PhaseDef("only", 5.0, (TrafficBand(profile, flows),)),)))
        try:
            w = build_scenario("tmp-custom", flows=2).generate(seed=0)
            assert w.scenario == "tmp-custom"
            assert [s.name for s in w.phases] == ["only"]
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("tmp-custom", lambda **_: None)
        finally:
            unregister_scenario("tmp-custom")
        assert "tmp-custom" not in scenario_names()

    def test_duplicate_phase_names_rejected(self):
        profile = dataset_profiles("peerrush")[0]
        band = (TrafficBand(profile, 1),)
        with pytest.raises(ValueError, match="duplicate phase"):
            Scenario(name="bad", phases=(PhaseDef("a", 1.0, band),
                                         PhaseDef("a", 1.0, band)))

    def test_band_validation(self):
        profile = dataset_profiles("peerrush")[0]
        with pytest.raises(ValueError, match="ramp"):
            TrafficBand(profile, 1, ramp="sideways")
        with pytest.raises(ValueError, match="key_pool"):
            TrafficBand(profile, 1, key_pool=0)
        with pytest.raises(ValueError, match="flows"):
            TrafficBand(profile, -1)

    def test_phase_and_generate_validation(self):
        profile = dataset_profiles("peerrush")[0]
        band = (TrafficBand(profile, 1),)
        with pytest.raises(ValueError, match="duration"):
            PhaseDef("a", 0.0, band)
        with pytest.raises(ValueError, match="no phases"):
            Scenario(name="empty", phases=())
        scenario = Scenario(name="one", phases=(PhaseDef("a", 1.0, band),))
        with pytest.raises(ValueError, match="flows_scale"):
            scenario.generate(seed=0, flows_scale=0.0)


class TestMaterialization:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_reproducible_and_well_formed(self, name):
        w1, w2 = tiny(name, seed=3), tiny(name, seed=3)
        assert w1.n_packets == w2.n_packets > 0
        for a, b in zip(w1.trace.packets, w2.trace.packets):
            assert (a.ts, a.length, a.key) == (b.ts, b.length, b.key)
            assert np.array_equal(a.payload, b.payload)
        assert np.array_equal(w1.labels, w2.labels)
        # different seed -> different workload
        w3 = tiny(name, seed=4)
        assert w3.n_packets != w1.n_packets or any(
            a.ts != b.ts for a, b in zip(w1.trace.packets, w3.trace.packets))
        # time-ordered trace, labels aligned
        ts = np.asarray([p.ts for p in w1.trace.packets])
        assert (np.diff(ts) >= 0).all()
        assert len(w1.labels) == w1.n_packets

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_phase_spans_partition_trace(self, name):
        w = tiny(name)
        spans = w.phases
        assert spans[0].start == 0 and spans[-1].stop == w.n_packets
        for a, b in zip(spans, spans[1:]):
            assert a.stop == b.start
            assert a.t_end == b.t_start
        # every packet's ts inside its span's window (last span absorbs tail)
        ts = np.asarray([p.ts for p in w.trace.packets])
        for span in spans[:-1]:
            if span.n_packets:
                assert ts[span.start] >= span.t_start
                assert ts[span.stop - 1] < span.t_end
        phase_idx = w.phase_labels()
        assert phase_idx.shape == (w.n_packets,)
        assert phase_idx[0] == 0 and phase_idx[-1] == len(spans) - 1

    def test_flows_scale(self):
        small = tiny("diurnal", scale=0.2)
        large = tiny("diurnal", scale=1.0)
        assert large.n_packets > 2 * small.n_packets

    def test_heavy_hitters_reuse_keys(self):
        w = tiny("heavy_hitters", scale=0.5)
        span = next(s for s in w.phases if s.name == "skewed")
        keys = [p.key.canonical()
                for p in w.trace.packets[span.start:span.stop]]
        counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
        # Zipf reuse: the top keys carry far more packets than a fresh
        # random-key-per-flow workload (max ~ max_packets=24) could.
        assert counts[0] > 48

    def test_flow_churn_has_mice(self):
        w = tiny("flow_churn", scale=0.5)
        span = next(s for s in w.phases if s.name == "mice-storm-1")
        from collections import Counter
        per_flow = Counter(p.key.canonical()
                           for p in w.trace.packets[span.start:span.stop])
        assert sum(1 for c in per_flow.values() if c < 8) > 10

    def test_concept_drift_moves_statistics(self):
        w = tiny("concept_drift", scale=0.6)
        profiles = dataset_profiles("peerrush")
        a_label = profiles[0].label

        def mean_len(span_name):
            span = next(s for s in w.phases if s.name == span_name)
            lens = [p.length
                    for p, lbl in zip(w.trace.packets[span.start:span.stop],
                                      w.labels[span.start:span.stop])
                    if lbl == a_label]
            return float(np.mean(lens))

        # label-0 traffic keeps its label but drifts toward class 1's
        # (larger) packet-length statistics
        assert mean_len("stable-b") > mean_len("stable-a") + 100


class TestLerpProfile:
    def test_endpoints_and_identity_fields(self):
        a, b = dataset_profiles("peerrush")[:2]
        at0 = lerp_profile(a, b, 0.0)
        at1 = lerp_profile(a, b, 1.0)
        assert at0.ipd_mu == a.ipd_mu and at1.ipd_mu == b.ipd_mu
        assert at1.label == a.label and at1.name == a.name
        assert at1.header_template == a.header_template
        mid = lerp_profile(a, b, 0.5)
        assert min(a.ipd_mu, b.ipd_mu) <= mid.ipd_mu <= max(a.ipd_mu, b.ipd_mu)


class TestGenerateFlowKeyOverride:
    def test_key_override_same_packets(self):
        profile = dataset_profiles("peerrush")[0]
        key = random_flow_key(np.random.default_rng(9))
        f1 = generate_flow(profile, 5)
        f2 = generate_flow(profile, 5, key=key)
        assert f2.key == key.canonical()
        assert all(p.key == key for p in f2.packets)
        # same stream position -> identical packet sequence either way
        assert [p.length for p in f1.packets] == [p.length for p in f2.packets]
        assert [p.ts for p in f1.packets] == [p.ts for p in f2.packets]


class TestServeScenario:
    @pytest.fixture(scope="class")
    def engine_parts(self, compiled16):
        return compiled16, EngineConfig(feature_mode="stats", batch_size=64,
                                        decision_cache="l1")

    def test_phasewise_equals_oneshot(self, engine_parts):
        compiled, config = engine_parts
        w = tiny("heavy_hitters", seed=1, scale=0.4)
        with PegasusEngine.from_compiled(compiled, config) as eng:
            rep = eng.serve(w)
        with PegasusEngine.from_compiled(compiled, config) as eng:
            ref = eng.serve(w.trace, labels=w.labels)
        assert list(rep.overall.decisions) == list(ref.decisions)
        assert rep.overall.n_packets == w.n_packets
        assert (rep.overall.cache_stats.hits, rep.overall.cache_stats.misses) \
            == (ref.cache_stats.hits, ref.cache_stats.misses)

    def test_per_phase_breakdown(self, engine_parts):
        compiled, config = engine_parts
        w = tiny("heavy_hitters", seed=1, scale=0.4)
        with PegasusEngine.from_compiled(compiled, config) as eng:
            rep = eng.serve(w)
        assert [s.name for s, _ in rep.phases] == \
            [s.name for s in w.phases]
        assert sum(r.n_packets for _, r in rep.phases) == w.n_packets
        assert sum(r.n_decisions for _, r in rep.phases) == \
            rep.overall.n_decisions
        # per-phase cache deltas sum to the overall counters
        assert sum(r.cache_stats.hits for _, r in rep.phases) == \
            rep.overall.cache_stats.hits
        # the skewed phase is where the repeating elephants live
        skewed = rep.phase("skewed")
        assert skewed.cache_stats.hit_rate > 0.3
        calm_hits = sum(r.cache_stats.hits for s, r in rep.phases
                        if s.name != "skewed")
        assert calm_hits < rep.overall.cache_stats.hits
        with pytest.raises(KeyError, match="no phase"):
            rep.phase("nope")

    def test_attack_flood_accuracy_craters(self, engine_parts):
        # The flood phase injects label-100+ attack traffic the benign-trained
        # classifier cannot name: its accuracy falls well below baseline's.
        compiled, config = engine_parts
        with PegasusEngine.from_compiled(compiled, config) as eng:
            rep = eng.serve(tiny("attack_flood"))
        assert rep.phase("flood").accuracy < 0.5 * rep.phase("baseline").accuracy

    def test_summary_shape(self, engine_parts):
        compiled, config = engine_parts
        rep_obj = None
        with PegasusEngine.from_compiled(compiled, config) as eng:
            rep_obj = eng.serve(build_scenario("microburst"),
                                         seed=3, flows_scale=0.2)
        s = rep_obj.summary()
        assert s["scenario"] == "microburst" and s["seed"] == 3
        assert set(s["phases"]) == {"calm-1", "burst-1", "calm-2",
                                    "burst-2", "calm-3"}
        for phase in s["phases"].values():
            assert {"t_start", "t_end", "pps", "accuracy",
                    "cache_hit_rate"} <= set(phase)

    def test_serve_scenario_sharded_topology(self, engine_parts):
        compiled, config = engine_parts
        from dataclasses import replace
        w = tiny("attack_flood", seed=2, scale=0.25)
        sharded = replace(config, topology="sharded", n_workers=2)
        with PegasusEngine.from_compiled(compiled, config) as eng:
            local = eng.serve(w)
        with PegasusEngine.from_compiled(compiled, sharded) as eng:
            shard = eng.serve(w)
        assert list(shard.overall.decisions) == list(local.overall.decisions)
        assert len(shard.overall.shard_seconds) == 2
