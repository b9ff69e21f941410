"""Cross-module property-based tests on the core invariants.

These are the load-bearing guarantees of the reproduction:

1. Basic fusion never changes program semantics.
2. Materialized tables approximate the float program, and the
   approximation improves with clustering depth.
3. The staged pipeline, the compiled reference model, and the emitted P4
   entries agree bit-for-bit.
4. The columnar trace views (the wire form shard payloads travel as) are
   lossless round-trips, and flow-shard hashing is a pure per-packet
   function — stable under any permutation of the columns.
5. The leaf grid (and the layer's fused gather over several of them) is the
   tree walk, on every integer key inside or outside the key domain.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import emit_p4
from repro.backends.p4 import interpret_entries
from repro.core import (
    Affine, ElementwiseAffine, ElementwiseFunc, MapStep, PrimitiveProgram,
    SumReduceStep, even_partition, fuse_basic, materialize, MaterializeConfig,
)
from repro.core.fuzzy import FuzzyTree, key_domain
from repro.core.mapping import LookupLayer, SegmentTable
from repro.dataplane import place_model, TOFINO2
from repro.net import build_scenario, scenario_names
from repro.net.traces import (KEY_COLUMN_NAMES, Trace,
                              canonicalize_key_columns, keys_from_columns)
from repro.serving import shard_hash, shard_hash_columns
from repro.utils.fixed_point import QFormat


def _random_program(rng: np.random.Generator, input_dim: int,
                    n_blocks: int) -> PrimitiveProgram:
    """A random stack of [elementwise-affine, matmul(+SR), nonlinearity]."""
    steps = []
    dim = input_dim
    for b in range(n_blocks):
        scale = rng.uniform(0.5, 1.5, dim)
        shift = rng.normal(0, 0.1, dim)
        steps.append(MapStep([(0, dim)], [ElementwiseAffine(scale, shift)]))
        out_dim = int(rng.integers(2, 6))
        seg = 2 if b == 0 and dim % 2 == 0 else dim
        partition = even_partition(dim, seg)
        w = rng.normal(0, 0.2, (dim, out_dim))
        fns = [Affine(w[s:e], rng.normal(0, 0.1, out_dim) / len(partition))
               for s, e in partition]
        steps.append(MapStep(partition, fns))
        if len(partition) > 1:
            steps.append(SumReduceStep(len(partition), out_dim))
        if rng.random() < 0.7:
            steps.append(MapStep([(0, out_dim)],
                                 [ElementwiseFunc(lambda v: np.maximum(v, 0),
                                                  out_dim, name="relu")]))
        dim = out_dim
    program = PrimitiveProgram(input_dim=input_dim, steps=steps)
    program.validate()
    return program


class TestFusionSemantics:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_fusion_preserves_semantics(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        program = _random_program(rng, input_dim=8, n_blocks=n_blocks)
        fused = fuse_basic(program)
        x = rng.normal(0, 50, size=(20, 8))
        np.testing.assert_allclose(fused.evaluate(x), program.evaluate(x),
                                   rtol=1e-9, atol=1e-9)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_fusion_never_adds_lookups(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        program = _random_program(rng, input_dim=8, n_blocks=n_blocks)
        fused = fuse_basic(program)
        assert fused.num_map_steps <= program.num_map_steps


class TestMaterializationFidelity:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 1000))
    def test_depth_improves_approximation(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 0.05, (6, 2))
        partition = even_partition(6, 2)
        fns = [Affine(w[s:e], np.zeros(2)) for s, e in partition]
        program = PrimitiveProgram(
            input_dim=6, steps=[MapStep(partition, fns), SumReduceStep(3, 2)])
        calib = np.floor(rng.uniform(0, 255, size=(300, 6))).astype(np.int64)
        want = calib.astype(np.float64) @ w
        err_small = np.abs(materialize(
            program, calib, MaterializeConfig(fuzzy_leaves=2)
        ).predict_scores(calib) - want).mean()
        err_large = np.abs(materialize(
            program, calib, MaterializeConfig(fuzzy_leaves=64)
        ).predict_scores(calib) - want).mean()
        assert err_large <= err_small + 1e-9



@lru_cache(maxsize=1)
def _cached_artifacts():
    rng = np.random.default_rng(3)
    w = rng.normal(0, 0.05, (6, 3))
    partition = even_partition(6, 2)
    fns = [Affine(w[s:e], np.full(3, 0.1)) for s, e in partition]
    program = PrimitiveProgram(
        input_dim=6, steps=[MapStep(partition, fns), SumReduceStep(3, 3)])
    calib = np.floor(rng.uniform(0, 255, size=(400, 6))).astype(np.int64)
    compiled = materialize(program, calib, MaterializeConfig(fuzzy_leaves=16))
    return compiled, calib


class TestThreeWayAgreement:
    """Compiled model == staged pipeline == interpreted P4 entries."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        return _cached_artifacts()

    def test_pipeline_agrees(self, artifacts):
        compiled, calib = artifacts
        pipeline = place_model(compiled, TOFINO2)
        np.testing.assert_array_equal(pipeline.process(calib[:100]),
                                      compiled.forward_int(calib[:100]))

    def test_p4_entries_agree(self, artifacts):
        compiled, calib = artifacts
        program = emit_p4(compiled)
        np.testing.assert_array_equal(
            interpret_entries(program, compiled, calib[:30]),
            compiled.forward_int(calib[:30]))

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2**31))
    def test_pipeline_agrees_on_random_inputs(self, seed):
        compiled, _ = _cached_artifacts()
        pipeline = place_model(compiled, TOFINO2)
        x = np.floor(np.random.default_rng(seed).uniform(0, 255, (5, 6))).astype(np.int64)
        np.testing.assert_array_equal(pipeline.process(x), compiled.forward_int(x))


def _random_tree(rng: np.random.Generator, d: int, n_leaves: int,
                 lo: int, hi: int, wild: bool) -> FuzzyTree:
    """A random tree shape over random features, with integer and
    half-integer thresholds inside ``[lo, hi)`` — or, when ``wild``, up to a
    domain width outside it (which must cost the table its grid)."""
    k = n_leaves - 1
    child = np.empty(2 * k, dtype=np.int64)
    open_links: list[int] = []
    for node in range(k):               # parents before children
        if node:
            child[open_links.pop(int(rng.integers(len(open_links))))] = node
        open_links += [2 * node, 2 * node + 1]
    if k:                               # a lone leaf is the root: no links
        child[rng.permutation(open_links)] = np.arange(k, 2 * k + 1)
    span = hi - lo + 1
    t_lo, t_hi = (lo - span, hi + span) if wild else (lo, hi)
    threshold = rng.integers(2 * t_lo, 2 * t_hi, size=k) / 2.0
    return FuzzyTree(
        dim=d, centroids=np.zeros((n_leaves, d)),
        feature=np.concatenate([rng.integers(0, d, size=k),
                                np.zeros(n_leaves, dtype=np.int64)]),
        threshold=np.concatenate([threshold, np.full(n_leaves, np.inf)]),
        child=np.concatenate([child, np.repeat(np.arange(k, 2 * k + 1), 2)]))


class TestLeafGridIsTheTreeWalk:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([(1, 4), (1, 8), (1, 11), (2, 3), (2, 8)]),
           st.booleans(), st.integers(1, 40), st.booleans(),
           st.integers(0, 10_000))
    def test_random_trees(self, shape, signed, n_leaves, wild, seed):
        d, bits = shape
        rng = np.random.default_rng(seed)
        lo, hi = key_domain(bits, signed)
        fmt = QFormat(8, 0, signed=True)
        tables = []
        for k in range(3):
            tree = _random_tree(rng, d, n_leaves, lo, hi, wild and k == 1)
            tables.append(SegmentTable(
                segment=(k * d, (k + 1) * d), kind="fuzzy",
                values_int=rng.integers(-30, 30, size=(n_leaves, 2)),
                out_format=fmt, in_bits=bits, in_signed=signed, tree=tree))
            inside = tree.threshold[:tree.n_internal]
            assert (tables[-1]._grid is not None) == bool(
                np.all((inside >= lo) & (inside < hi)))
        span = hi - lo + 1
        x = np.concatenate([
            rng.integers(lo, hi + 1, size=(60, 3 * d)),              # inside
            rng.integers(lo - 3, hi + 4, size=(60, 3 * d)),          # straddling
            rng.integers(lo - 40 * span, hi + 40 * span, size=(60, 3 * d)),
        ])
        walked = [t.tree.predict_index(x[:, t.segment[0]:t.segment[1]])
                  for t in tables]
        for t, want in zip(tables, walked):
            np.testing.assert_array_equal(
                t.fuzzy_indices(x[:, t.segment[0]:t.segment[1]]), want)
        layer = LookupLayer(tables=tables, sum_reduce=True, out_format=fmt)
        np.testing.assert_array_equal(
            layer.forward_int(x),
            np.clip(sum(t.values_int[w] for t, w in zip(tables, walked)),
                    fmt.int_min, fmt.int_max))


@lru_cache(maxsize=8)
def _scenario_trace(family: str, seed: int) -> Trace:
    """A small scenario-generated trace (cached: hypothesis revisits seeds)."""
    return build_scenario(family).generate(seed=seed, flows_scale=0.1).trace


_families = st.sampled_from(scenario_names())
_seeds = st.integers(0, 500)


class TestColumnarRoundTrips:
    """The columnar wire form of scenario-generated traces is lossless."""

    @settings(deadline=None, max_examples=12)
    @given(_families, _seeds, st.sampled_from([None, 4, 60]))
    def test_to_columns_from_columns_roundtrip(self, family, seed,
                                               payload_bytes):
        trace = _scenario_trace(family, seed)
        back = Trace.from_columns(trace.to_columns(payload_bytes=payload_bytes))
        assert len(back) == len(trace)
        for a, b in zip(trace.packets, back.packets):
            assert (a.ts, a.length, a.key) == (b.ts, b.length, b.key)
            if payload_bytes is not None:
                take = min(a.payload_len, payload_bytes)
                np.testing.assert_array_equal(b.payload[:take],
                                              a.payload[:take])
                assert not b.payload[take:].any()   # zero padding beyond

    @settings(deadline=None, max_examples=12)
    @given(_families, _seeds)
    def test_keys_from_columns_inverts_canonicalization(self, family, seed):
        trace = _scenario_trace(family, seed)
        rebuilt = keys_from_columns(trace.canonical_key_columns())
        assert rebuilt == trace.canonical_keys()
        assert all(type(v) is int for k in rebuilt[:3] for v in k)

    @settings(deadline=None, max_examples=12)
    @given(_families, _seeds)
    def test_canonicalize_columns_matches_scalar(self, family, seed):
        trace = _scenario_trace(family, seed)
        cols = canonicalize_key_columns(trace.key_columns())
        want = trace.canonical_keys()
        for i, name in enumerate(KEY_COLUMN_NAMES):
            np.testing.assert_array_equal(cols[name],
                                          [k[i] for k in want])


class TestShardHashStability:
    """shard_hash_columns is a pure per-packet function of the 5-tuple."""

    @settings(deadline=None, max_examples=12)
    @given(_families, _seeds, st.integers(0, 2**31))
    def test_stable_under_permutation(self, family, seed, perm_seed):
        trace = _scenario_trace(family, seed)
        cols = trace.canonical_key_columns()
        h = shard_hash_columns(cols)
        perm = np.random.default_rng(perm_seed).permutation(len(h))
        h_perm = shard_hash_columns(
            {name: cols[name][perm] for name in KEY_COLUMN_NAMES})
        np.testing.assert_array_equal(h_perm, h[perm])

    @settings(deadline=None, max_examples=8)
    @given(_families, _seeds)
    def test_columns_match_scalar_hash(self, family, seed):
        trace = _scenario_trace(family, seed)
        keys = trace.canonical_keys()
        h = shard_hash_columns(trace.canonical_key_columns())
        assert [int(v) for v in h[:64]] == \
            [shard_hash(k) for k in keys[:64]]

    @settings(deadline=None, max_examples=8)
    @given(_families, _seeds, st.integers(1, 8))
    def test_shard_assignment_is_per_flow(self, family, seed, n_shards):
        # all packets of a canonical flow land on one shard, any shard count
        trace = _scenario_trace(family, seed)
        shard = shard_hash_columns(trace.canonical_key_columns()) \
            % np.uint64(n_shards)
        by_flow: dict = {}
        for k, s in zip(trace.canonical_keys(), shard.tolist()):
            by_flow.setdefault(k, set()).add(s)
        assert all(len(s) == 1 for s in by_flow.values())


class TestWireDtypePreservation:
    """The columnar wire form carries *exactly* the declared dtypes.

    ``from_columns(to_columns(t))`` must neither promote nor narrow any
    column — the schema in ``repro.dataplane.schema`` is the single source
    of truth, so every column is asserted against it, including the
    rank-2 payload matrix and the uint8 per-packet payload buffers that
    ``read_trace`` reconstructs via ``np.frombuffer``.
    """

    @settings(deadline=None, max_examples=12)
    @given(_families, _seeds, st.sampled_from([None, 4, 60]))
    def test_round_trip_preserves_declared_dtypes(self, family, seed,
                                                  payload_bytes):
        from repro.dataplane.schema import WIRE_COLUMNS
        trace = _scenario_trace(family, seed)
        cols = trace.to_columns(payload_bytes=payload_bytes)
        for name, arr in cols.items():
            spec = WIRE_COLUMNS.columns[name]
            assert arr.dtype == WIRE_COLUMNS.np_dtype(name), name
            assert arr.ndim == spec.rank, name
        back = Trace.from_columns(cols)
        again = back.to_columns(payload_bytes=payload_bytes)
        assert set(again) == set(cols)
        for name in cols:
            assert again[name].dtype == cols[name].dtype, name
        # Per-packet payload buffers stay uint8 through the round trip.
        assert all(p.payload.dtype == np.uint8 for p in back.packets)

    @settings(deadline=None, max_examples=6)
    @given(_families, st.integers(0, 100))
    def test_binary_format_reload_preserves_dtypes(self, tmp_path_factory,
                                                   family, seed):
        from repro.dataplane.schema import WIRE_COLUMNS
        from repro.net.traces import read_trace, write_trace
        trace = _scenario_trace(family, seed)
        path = tmp_path_factory.mktemp("wire") / "trace.spcap"
        write_trace(trace, path)
        back = read_trace(path)
        # frombuffer reconstruction: payloads are uint8, columns schema-exact
        assert all(p.payload.dtype == np.uint8 for p in back.packets)
        cols = back.to_columns(payload_bytes=16)
        for name, arr in cols.items():
            assert arr.dtype == WIRE_COLUMNS.np_dtype(name), name
