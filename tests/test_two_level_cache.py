"""The bit-identity test wall around the two-level cache.

Four layers of defense for the serving hot path:

- property tests (hypothesis): an L2 approximate hit can NEVER flip a
  decision, even for probes jittered right across quantization-bucket
  boundaries;
- degenerate-capacity tests: L2 bucket churn at capacity 1/2 stays
  bit-identical and keeps the ``exact + approx + misses == lookups`` stat
  identity;
- layout tests: every replica owns its cache, so ``sharded`` and
  ``parallel`` at the same worker count report identical counters;
- a mutation test: a deliberately-wrong approximate hit (via
  ``install_l2_fault_backend``) must be caught by the differential matrix
  and ddmin-shrunk — proving the wall actually guards the approximate path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import (certified_decision_box,
                                decision_box_certified, decision_cell_box)
import repro.dataplane.runtime as runtime_module
from repro.dataplane.runtime import WindowedClassifierRuntime
from repro.errors import ConfigError
from repro.eval import differential as dfl
from repro.net import build_scenario
from repro.serving.cache import (_DEC, _HI, _LO, CacheStats,
                                 QuantizedDecisionStore, TwoLevelDecisionCache)
from repro.serving.engine import EngineConfig, PegasusEngine, lookup_backends


@pytest.fixture(scope="module")
def model():
    return dfl.build_reference_model(seed=0)


@pytest.fixture(scope="module")
def workload():
    # Flood traffic repeats decision cells heavily: plenty of approximate
    # hits, so the fault/mutation path below actually fires.
    return build_scenario("attack_flood").generate(seed=3, flows_scale=0.15)


BASE_CONFIG = dict(runtime="windowed", feature_mode="stats",
                   capacity=4096, batch_size=64)


def _serve(source, workload, **overrides):
    config = EngineConfig(**{**BASE_CONFIG, **overrides})
    with PegasusEngine(source=source, config=config) as eng:
        return eng.serve(workload.trace, labels=workload.labels)


def _churn_replay(model, workload, l2_capacity, batch_size=64):
    """Replay through one windowed runtime whose two-level cache churns at
    degenerate capacity (2 L1 entries, ``l2_capacity`` L2 buckets)."""
    cache = TwoLevelDecisionCache(capacity=2, l2_capacity=l2_capacity)
    runtime = WindowedClassifierRuntime(
        model, feature_mode="stats", capacity=BASE_CONFIG["capacity"],
        batch_size=batch_size, decision_cache=cache)
    return (runtime.process_trace(workload.trace, labels=workload.labels),
            cache.stats)


# ---------------------------------------------------------------------------
# L2 store degenerate / churn semantics (unit level)
# ---------------------------------------------------------------------------

class TestQuantizedStoreDegenerate:
    def _box(self, center, width=4):
        feats = np.asarray(center, dtype=np.int64)
        return feats, feats - width, feats + width

    def test_capacity_one_bucket_churn(self):
        store = QuantizedDecisionStore(capacity=1, quantize_shift=6)
        a, a_lo, a_hi = self._box([10, 10])
        b, b_lo, b_hi = self._box([200, 200])
        store.insert(a, a_lo, a_hi, 1)
        assert store.probe(a) is not None
        _, evicted = store.insert(b, b_lo, b_hi, 2)   # different bucket
        assert evicted == 1 and store.n_buckets == 1
        assert store.probe(a) is None                  # a's bucket churned out
        assert int(store.probe(b)[_DEC]) == 2

    def test_bucket_entries_fifo_churn(self):
        store = QuantizedDecisionStore(capacity=4, quantize_shift=6,
                                       bucket_entries=2)
        # Three disjoint boxes in ONE bucket (all keys quantize alike).
        feats = [np.asarray([64 + i, 64], dtype=np.int64) for i in range(3)]
        for i, f in enumerate(feats):
            store.insert(f, f, f, i)                   # point boxes
        assert len(store) == 2                         # FIFO dropped entry 0
        assert store.probe(feats[0]) is None
        assert int(store.probe(feats[1])[_DEC]) == 1
        assert int(store.probe(feats[2])[_DEC]) == 2

    def test_probe_requires_box_containment(self):
        store = QuantizedDecisionStore(capacity=4, quantize_shift=6)
        feats, lo, hi = self._box([100, 100], width=2)
        store.insert(feats, lo, hi, 7)
        # Same quantization bucket, outside the certificate box: no hit —
        # the quantized key alone never serves a decision.
        near = feats + 3
        assert store.key_for(near) == store.key_for(feats)
        assert store.probe(near) is None
        assert int(store.probe(feats + 2)[_DEC]) == 7  # box edge inclusive

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            QuantizedDecisionStore(capacity=0)
        with pytest.raises(ConfigError):
            QuantizedDecisionStore(quantize_shift=17)
        with pytest.raises(ConfigError):
            TwoLevelDecisionCache(l2_quantize_shift=-1)


# ---------------------------------------------------------------------------
# Property: verified approximate hits can never flip a decision
# ---------------------------------------------------------------------------

# Coordinates biased toward quantization-bucket edges (multiples of
# 1 << 6 = 64): the exact region where an unsound certificate would let a
# quantized-key hit serve the wrong side of a decision boundary.
_coord = st.one_of(
    st.integers(min_value=0, max_value=255),
    st.builds(lambda k, d: max(0, min(255, (k << 6) + d)),
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=-2, max_value=2)),
)


class TestNeverFlipProperty:
    @given(base=st.lists(_coord, min_size=16, max_size=16),
           jitter=st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_approx_hit_never_flips_decision(self, model, base, jitter):
        store = QuantizedDecisionStore(capacity=8, quantize_shift=6)
        x0 = np.asarray(base, dtype=np.int64)
        lo, hi = decision_cell_box(model, x0)
        d0 = int(model.predict(x0[None, :])[0])
        # The certificate is sound at its own anchor point.
        assert np.all(lo[0] <= x0) and np.all(x0 <= hi[0])
        store.insert(x0, lo[0], hi[0], d0)

        x1 = np.clip(x0 + np.asarray(jitter, dtype=np.int64), 0, 255)
        entry = store.probe(x1)
        if entry is None:
            return      # nothing served -> nothing to flip
        # A hit is only ever served from inside the certified box, and the
        # cached decision equals the model's exact decision at the probe.
        assert np.all(entry[_LO] <= x1) and np.all(x1 <= entry[_HI])
        assert int(entry[_DEC]) == int(model.predict(x1[None, :])[0])

    @given(base=st.lists(_coord, min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_cell_box_is_constant_decision_region(self, model, base):
        x0 = np.asarray(base, dtype=np.int64)
        lo, hi = decision_cell_box(model, x0)
        d0 = int(model.predict(x0[None, :])[0])
        # Every corner-ish probe inside the box gets the same decision.
        probes = np.stack([lo[0], hi[0], (lo[0] + hi[0]) // 2,
                           np.minimum(x0 + 1, hi[0]),
                           np.maximum(x0 - 1, lo[0])])
        assert (model.predict(probes) == d0).all()

    @given(base=st.lists(_coord, min_size=16, max_size=16),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_certified_box_is_constant_decision_region(self, model, base,
                                                       seed):
        # The interval-certified bucket cube (the box upgrade a two-level
        # insert attempts) must be as sound as the leaf cell box: every
        # point inside the returned box — corners included — receives the
        # anchor's decision.
        x0 = np.asarray(base, dtype=np.int64)
        lo, hi = certified_decision_box(model, x0, quantize_shift=6)
        lo, hi = lo[0], hi[0]
        assert np.all(lo <= x0) and np.all(x0 <= hi)
        d0 = int(model.predict(x0[None, :])[0])
        rng = np.random.default_rng(seed)
        samples = rng.integers(lo, hi + 1, size=(32, len(lo)))
        probes = np.concatenate([samples, lo[None, :], hi[None, :]])
        assert (model.predict(probes) == d0).all()

    @given(base=st.lists(_coord, min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_certified_verdict_never_lies_on_cube(self, model, base):
        # decision_box_certified's True verdict over the shift-6 bucket
        # cube is checked against brute-force sampling; a False verdict is
        # always acceptable (it only means "could not prove").
        x0 = np.asarray(base, dtype=np.int64)
        cube_lo = (x0 >> 6) << 6
        cube_hi = cube_lo + 63
        if not decision_box_certified(model, x0, cube_lo, cube_hi)[0]:
            return
        d0 = int(model.predict(x0[None, :])[0])
        rng = np.random.default_rng(int(x0.sum()))
        probes = rng.integers(cube_lo, cube_hi + 1, size=(64, len(x0)))
        assert (model.predict(probes) == d0).all()


# ---------------------------------------------------------------------------
# Engine-level churn, stat identity, replica layout
# ---------------------------------------------------------------------------

class TestEngineChurnBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self, model, workload):
        return _serve(model, workload, decision_cache="off")

    @pytest.mark.parametrize("l2_capacity", [1, 2])
    def test_l2_bucket_churn_stays_bit_identical(self, model, workload,
                                                 reference, l2_capacity):
        decisions, cs = _churn_replay(model, workload, l2_capacity)
        assert list(decisions) == list(reference.decisions)
        assert cs.evictions > 0                          # churn really happened
        assert cs.exact_hits + cs.approx_hits + cs.misses == cs.lookups \
            == len(decisions)

    def test_batched_stat_stream_identity_under_churn(self, model, workload):
        """Batch size must not perturb the cache op stream, even while both
        levels churn at degenerate capacity: the batched two-pass protocol
        replays the scalar op sequence exactly."""
        streams = set()
        decisions = []
        for batch_size in (64, 7):
            got, cs = _churn_replay(model, workload, 1, batch_size)
            streams.add((cs.exact_hits, cs.approx_hits, cs.misses,
                         cs.evictions))
            decisions.append(got)
        assert len(streams) == 1
        assert list(decisions[0]) == list(decisions[1])

    def test_certificates_in_pieces_match_one_call(self, model,
                                                   monkeypatch):
        """A step's L2 inserts are certified ``CERTIFICATE_ROWS`` rows at a
        time; the pieces give exactly the boxes of one whole-step call."""
        cache = TwoLevelDecisionCache()
        runtime = WindowedClassifierRuntime(model, feature_mode="stats",
                                            decision_cache=cache)
        feats = np.random.default_rng(0).integers(0, 256, size=(50, 16))
        want = certified_decision_box(
            model, feats, quantize_shift=cache.l2.quantize_shift)
        # Some rows are certified past their cell, so pieces matter.
        assert (want[0] != decision_cell_box(model, feats)[0]).any()
        monkeypatch.setattr(runtime_module, "CERTIFICATE_ROWS", 7)
        for got, expected in zip(runtime._cell_boxes(feats), want):
            np.testing.assert_array_equal(got, expected)

    def test_stat_identity_regression(self, model, workload, reference):
        """exact_hits + approx_hits + misses == lookups, at ample capacity,
        with both hit kinds actually nonzero — the regression pin for the
        one-lookup-per-decision invariant."""
        got = _serve(model, workload, decision_cache="l1+l2")
        cs = got.cache_stats
        assert cs.approx_hits > 0
        assert cs.exact_hits == cs.hits                   # alias
        assert cs.exact_hits + cs.approx_hits + cs.misses == cs.lookups
        assert cs.lookups == got.n_decisions == reference.n_decisions
        merged = CacheStats()
        merged.merge(cs)
        merged.merge(cs)
        assert merged.approx_hits == 2 * cs.approx_hits
        assert merged.lookups == 2 * cs.lookups

    def test_most_scenario_families_hit(self, compiled16):
        """Families whose exact-window L1 stays cold still hit through the
        quantized L2; only the churn-heavy ones that gate L2 inserts off
        (diurnal, microburst) may stay at zero."""
        config = EngineConfig(feature_mode="stats", batch_size=64,
                              decision_cache="l1+l2")
        warm = []
        for name in ("attack_flood", "concept_drift", "diurnal",
                     "flow_churn", "heavy_hitters", "microburst"):
            w = build_scenario(name).generate(seed=0, flows_scale=0.25)
            with PegasusEngine.from_compiled(compiled16, config) as eng:
                if eng.serve(w).overall.cache_stats.hit_rate > 0.0:
                    warm.append(name)
        assert len(warm) >= 4, warm


class TestReplicaLayout:
    @pytest.mark.parametrize("kind", dfl.RUNTIME_KINDS)
    def test_sharded_and_parallel_counters_match(self, workload, kind):
        """Every replica owns its two-level cache, so the same flow split
        gives the same decisions and cache counters in-process and across
        worker processes — approximate hits included. A kind without a
        cache (``two_stage``) serves uncached and reports zero counters on
        both."""
        source = dfl.default_sources()[kind]
        cache = dfl.RUNTIME_CACHES[kind][-1]
        counters, digests = set(), set()
        for topology in ("sharded", "parallel"):
            config = EngineConfig(**{**BASE_CONFIG, "runtime": kind,
                                     "decision_cache": cache,
                                     "topology": topology, "n_workers": 2})
            with PegasusEngine(source=source, config=config) as eng:
                report = eng.serve(workload.trace, labels=workload.labels)
            cs = report.cache_stats
            assert (cs.lookups > 0) == (cache != "off")
            counters.add((cs.exact_hits, cs.approx_hits, cs.misses,
                          cs.evictions))
            digests.add(dfl.decision_digest(report.decisions))
        assert len(counters) == 1, counters
        assert len(digests) == 1


# ---------------------------------------------------------------------------
# Mutation test: a wrong approximate hit must be caught and shrunk
# ---------------------------------------------------------------------------

class TestL2FaultMutation:
    @pytest.fixture()
    def fault(self, monkeypatch):
        # The fault corrupts every third approximate hit on an entry an
        # earlier register step decided (in-step hits join a pending
        # entry): 64-row steps give the 475-packet trace enough of them.
        monkeypatch.setattr(runtime_module, "REGISTER_STEP_ROWS", 64)
        name = dfl.install_l2_fault_backend("index+l2fault-test", period=3)
        yield name
        lookup_backends.unregister(name)

    def test_wrong_approx_hit_is_caught(self, model, workload, fault):
        sources = {"windowed": model}
        bad = dfl.EngineCase("windowed", "local", 1, fault, "l1+l2", 64)
        report = dfl.run_differential(workload, sources=sources, cases=[bad])
        assert not report.ok
        assert report.divergences and report.divergences[0].case == bad.label
        # Control: with the L2 disabled the fault has no approximate hits to
        # corrupt — the SAME backend must sail through. The kill is therefore
        # attributable to the approximate path alone.
        control = dfl.EngineCase("windowed", "local", 1, fault, "l1", 64)
        assert dfl.run_differential(workload, sources=sources,
                                    cases=[control]).ok

    def test_wrong_approx_hit_shrinks_to_minimal_trace(self, model, workload,
                                                       fault):
        case = dfl.EngineCase("windowed", "local", 1, fault, "l1+l2", 64)
        failing = dfl.make_failing_predicate(case, model)
        assert failing(workload.trace, workload.labels)
        shrunk, labels = dfl.shrink_failing_trace(
            workload.trace, workload.labels, failing, max_evals=150)
        assert failing(shrunk, labels)
        assert len(shrunk.packets) < workload.n_packets
        assert len(labels) == len(shrunk.packets)
