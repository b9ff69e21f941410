"""The open-loop serving front-end: pump, admission policies, SLO reports.

The headline contracts: with ``time_scale=0`` and ``admission="none"`` the
open-loop decision stream is **bit-identical** to closed-loop replay; every
open-loop serve records exactly which packets were shed, and the
differential harness (:func:`repro.eval.differential.verify_open_loop`)
proves the claimed admitted subset replays bit-identically against a cold
scalar reference — including catching a report whose shed set was
tampered with. Plus: typed validation of the new config knobs, the closed
admission-policy table, the per-phase L2 admission gate, and deterministic
pump/policy unit tests.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dataplane.decisions import DecisionBatch
from repro.errors import ConfigError
from repro.eval.differential import verify_open_loop
from repro.net.scenarios import build_scenario
from repro.serving import (AimdAdmission, EngineConfig, LatencySummary,
                           NoAdmission, OpenLoopPump, OpenLoopReport,
                           PegasusEngine, TailDropAdmission)
from repro.serving import engine as engine_mod

BATCH = 32


def tiny(name, seed=0, scale=0.25):
    return build_scenario(name).generate(seed=seed, flows_scale=scale)


def _config(**kw):
    kw.setdefault("feature_mode", "stats")
    kw.setdefault("batch_size", BATCH)
    return EngineConfig(**kw)


# ---------------------------------------------------------------------------
# Config + registry
# ---------------------------------------------------------------------------

class TestOpenLoopConfig:
    @pytest.mark.parametrize("kwargs,field", [
        (dict(admission="nope"), "admission"),
        (dict(queue_capacity=0), "queue_capacity"),
        (dict(p99_target_ms=0.0), "p99_target_ms"),
        (dict(p99_target_ms=-5.0), "p99_target_ms"),
        (dict(time_scale=-0.1), "time_scale"),
    ])
    def test_typed_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            EngineConfig(**kwargs)
        assert exc.value.field == field

    def test_aimd_requires_target(self, compiled16, replay_flows):
        # The knob combination is only checked when the policy is built:
        # aimd without a latency target has no feedback signal to track.
        config = _config(admission="aimd")        # valid as a config...
        engine = PegasusEngine.from_compiled(compiled16, config)
        with pytest.raises(ConfigError, match="p99_target_ms"):
            engine.serve(replay_flows, mode="open")

    def test_admission_policy_round_trip(self, compiled16, replay_flows):
        """Each admission name serves open loop and comes back on the
        report; an unknown name lists the closed table."""
        for name in engine_mod.ADMISSION_BUILDERS:
            config = _config(admission=name, p99_target_ms=50.0)
            report = PegasusEngine.from_compiled(compiled16, config) \
                .serve(replay_flows, mode="open")
            assert report.admission == name
            assert report.admitted + report.shed == report.offered
        with pytest.raises(ConfigError) as exc:
            EngineConfig(admission="everything")
        assert exc.value.field == "admission"
        assert exc.value.allowed == ("aimd", "none", "tail-drop")

    def test_serve_mode_validation(self, compiled16, replay_flows):
        engine = PegasusEngine.from_compiled(compiled16, _config())
        with pytest.raises(ConfigError, match="mode"):
            engine.serve(replay_flows, mode="half-open")
        with pytest.raises(ConfigError, match="workload"):
            engine.serve(42)


# ---------------------------------------------------------------------------
# Policy + pump unit tests (deterministic, engine-free)
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_no_admission_ignores_depth(self):
        policy = NoAdmission()
        assert all(policy.admit(i, depth, 0.0)
                   for i, depth in enumerate((0, 10, 10**6)))

    def test_tail_drop_caps_depth(self):
        policy = TailDropAdmission(queue_capacity=4)
        assert policy.admit(0, 3, 0.0)
        assert not policy.admit(1, 4, 0.0)
        assert not policy.admit(2, 5, 0.0)

    def test_aimd_cut_and_recover(self):
        policy = AimdAdmission(queue_capacity=100, target_s=0.1)
        assert policy.rate == 1.0
        # Sojourn above backoff_fraction * target cuts multiplicatively.
        policy.observe(1, 0.06, 0, now=1.0)
        assert policy.rate == pytest.approx(0.5)
        # ...but cuts are cooldown-limited: an immediate second signal
        # within cooldown_s must not compound.
        policy.observe(1, 0.06, 0, now=1.001)
        assert policy.rate == pytest.approx(0.5)
        # Quiet periods recover additively.
        policy.observe(1, 0.001, 0, now=2.0)
        assert policy.rate == pytest.approx(0.55)
        # A full queue is the hard backstop: shed + cut.
        assert not policy.admit(0, depth=100, now=3.0)
        assert policy.rate == pytest.approx(0.275)

    def test_aimd_rate_floors(self):
        policy = AimdAdmission(queue_capacity=10, target_s=0.1,
                               min_rate=0.25, cooldown_s=0.0)
        for k in range(20):
            policy.observe(1, 1.0, 0, now=float(k))
        assert policy.rate == 0.25

    def test_latency_summary(self):
        s = LatencySummary.from_seconds(np.linspace(0.001, 0.1, 1000))
        assert s.n == 1000
        assert 0 < s.p50_ms < s.p99_ms < s.p999_ms <= s.max_ms
        empty = LatencySummary.from_seconds(np.array([]))
        assert empty.n == 0 and empty.p99_ms == 0.0


def _echo(indices):
    """A stand-in serve: one decision per served packet, seq = its index."""
    n = len(indices)
    return DecisionBatch(np.asarray(indices, dtype=np.int64),
                         np.full(n, -1, dtype=np.int64),
                         np.zeros(n, dtype=np.int64), np.zeros(n))


class TestPump:
    @staticmethod
    def _echo_chunk(indices):
        return _echo(indices)

    def test_sync_drain_preserves_fifo_order(self):
        pump = OpenLoopPump(10, None, self._echo_chunk, NoAdmission(),
                            drain_max=4)
        result = pump.run()
        assert result.decisions.seq.tolist() == list(range(10))
        assert result.served == 10
        assert result.shed_seq.size == 0
        assert np.array_equal(result.admitted_seq, np.arange(10))

    def test_sync_tail_drop_is_deterministic(self):
        # capacity < drain_max: the queue fills to capacity before a drain
        # ever triggers, so exactly the first `capacity` packets survive.
        pump = OpenLoopPump(10, None, self._echo_chunk,
                            TailDropAdmission(queue_capacity=3), drain_max=5)
        result = pump.run()
        assert result.decisions.seq.tolist() == [0, 1, 2]
        assert list(result.shed_seq) == list(range(3, 10))
        assert list(result.admitted_seq) == [0, 1, 2]

    def test_drain_max_validated(self):
        with pytest.raises(ValueError, match="drain_max"):
            OpenLoopPump(1, None, self._echo_chunk, NoAdmission(),
                         drain_max=0)

    def test_paced_replay_runs_on_the_calling_thread(self):
        """Arrivals that come due while a chunk is in service are offered
        after it, in order, stamped with their scheduled arrival: the
        sojourn counts the rest of that service, and no thread is started."""
        import threading
        import time

        threads = []

        def slow_chunk(indices):
            threads.append(threading.current_thread())
            time.sleep(0.02)
            return _echo(indices)

        offsets = np.array([0.0, 0.010, 0.012, 0.3])
        result = OpenLoopPump(4, offsets, slow_chunk, NoAdmission(),
                              drain_max=1).run()
        assert result.decisions.seq.tolist() == [0, 1, 2, 3]
        assert set(threads) == {threading.current_thread()}
        assert list(result.depth_at) == [0, 0, 1, 0]
        sojourn = result.complete - result.arrival
        # 1 and 2 arrived 10-12 ms into packet 0's 20 ms service: they wait
        # out the rest of it, 2 also all of 1's service.
        assert sojourn[1] >= 0.01 + 0.02 - 1e-3
        assert sojourn[2] >= 0.008 + 0.04 - 1e-3
        # Packet 3 is slept for, not polled for: offered at its own time.
        assert result.arrival[3] - result.arrival[0] >= 0.3 - 2e-4


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

class TestOpenLoopServe:
    def test_sync_none_bit_identical_to_closed(self, compiled16):
        """time_scale=0 + admission="none": same decisions as closed loop."""
        w = tiny("heavy_hitters", seed=1, scale=0.4)
        config = _config(decision_cache="l1")
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            closed = eng.serve(w.trace, labels=w.labels)
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            open_rep = eng.serve(w, mode="open")
        assert isinstance(open_rep, OpenLoopReport)
        assert list(open_rep.serving.decisions) == list(closed.decisions)
        assert open_rep.admitted == w.n_packets and open_rep.shed == 0
        assert open_rep.meets_target is None       # no target configured
        assert open_rep.latency.n == len(open_rep.serving.decisions) \
            or open_rep.latency.n == open_rep.admitted

    def test_shed_subset_verifies_bit_identical(self, compiled16):
        """Tail-drop sheds; the differential harness accepts the claim."""
        w = tiny("attack_flood", seed=2, scale=0.3)
        config = _config(admission="tail-drop", queue_capacity=16)
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            report = eng.serve(w, mode="open")
        assert 0 < report.shed < report.offered
        both = np.concatenate([report.admitted_seq, report.shed_seq])
        assert np.array_equal(np.sort(both), np.arange(w.n_packets))
        assert report.serving.n_packets == report.admitted
        assert verify_open_loop(w, report, compiled16) == []

    def test_lying_policy_is_caught(self, compiled16):
        """A report whose shed set lies must fail verification: hiding one
        shed packet, or claiming one served packet was shed."""
        w = tiny("attack_flood", seed=2, scale=0.3)
        config = _config(admission="tail-drop", queue_capacity=16)
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            report = eng.serve(w, mode="open")
        assert verify_open_loop(w, report, compiled16) == []
        admitted, shed = report.admitted_seq, report.shed_seq
        hid_a_shed = replace(report, shed_seq=shed[1:],
                             admitted_seq=np.union1d(admitted, shed[:1]))
        shed_a_served = replace(report,
                                shed_seq=np.union1d(shed, admitted[:1]),
                                admitted_seq=admitted[1:])
        for tampered in (hid_a_shed, shed_a_served):
            notes = verify_open_loop(w, tampered, compiled16)
            assert notes and any("admitted" in note for note in notes)

    def test_paced_replay_with_aimd(self, compiled16):
        """Paced replay: the report carries latency/queue telemetry."""
        w = tiny("microburst", seed=3, scale=0.2)
        span_s = w.phases[-1].t_end - w.phases[0].t_start
        config = _config(admission="aimd", queue_capacity=256,
                         p99_target_ms=50.0,
                         time_scale=0.05 / max(span_s, 1e-9))
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            report = eng.serve(w, mode="open", max_gap=0.01)
        assert report.offered == w.n_packets
        assert report.admitted + report.shed == report.offered
        assert report.wall_seconds > 0 and report.admitted_pps > 0
        assert report.meets_target in (True, False)
        assert [s.name for s, _ in report.phases] == \
            [s.name for s in w.phases]
        assert sum(p.offered for _, p in report.phases) == report.offered
        assert report.queue_depth_timeline
        with pytest.raises(KeyError, match="no phase"):
            report.phase("nope")

    def test_open_mode_wraps_plain_workloads(self, compiled16, replay_flows):
        """Flows/traces get a single synthetic phase span in open mode."""
        with PegasusEngine.from_compiled(compiled16, _config()) as eng:
            report = eng.serve(replay_flows, mode="open")
        assert report.scenario == "<trace>"
        assert [s.name for s, _ in report.phases] == ["trace"]
        assert report.shed == 0
        summary = report.summary()
        assert summary["admission"] == "none"
        assert set(summary["phases"]) == {"trace"}


# ---------------------------------------------------------------------------
# Per-phase L2 admission gate (cold-phase cache-thrash fix)
# ---------------------------------------------------------------------------

class TestPhaseL2Gate:
    def test_cold_phases_skip_l2_inserts(self, compiled16):
        """Diurnal and microburst phases are churn-heavy: they gate L2
        inserts off."""
        for family in ("diurnal", "microburst"):
            w = tiny(family, seed=4, scale=0.3)
            assert all(not s.l2_insert for s in w.phases)
            config = _config(decision_cache="l1+l2")
            with PegasusEngine.from_compiled(compiled16, config) as eng:
                gated = eng.serve(w)
            assert gated.overall.cache_stats.l2_skipped > 0, family
            with PegasusEngine.from_compiled(compiled16, _config()) as eng:
                plain = eng.serve(w)
            # The gate changes caching, never decisions.
            assert list(gated.overall.decisions) == \
                list(plain.overall.decisions)

    def test_warm_phases_keep_l2_inserts(self, compiled16):
        w = tiny("heavy_hitters", seed=1, scale=0.3)
        assert all(s.l2_insert for s in w.phases)
        config = _config(decision_cache="l1+l2")
        with PegasusEngine.from_compiled(compiled16, config) as eng:
            report = eng.serve(w)
        assert report.overall.cache_stats.l2_skipped == 0
