"""Tests for PHV allocation, TCAM expansion, placement, and pipeline execution."""

import numpy as np
import pytest

from repro import nn
from repro.errors import PipelineError, ResourceExceededError
from repro.core import PegasusCompiler, CompilerConfig, FuzzyTree
from repro.dataplane import (
    TOFINO2, GENERIC_PISA, TargetConfig, PHVAllocator,
    ternary_entries_for_tree, tcam_lookup, place_model,
)
from repro.models import build_model
from repro.net import make_dataset
from repro.net.features import dataset_views


def _compiled_toy(seed=0, fuzzy_leaves=16):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(8, 6, rng=0),
        nn.ReLU(),
        nn.Linear(6, 3, rng=1),
    )
    for p in model.parameters():
        p.data *= 0.1
    model.eval_mode()
    x = np.floor(rng.uniform(0, 255, size=(400, 8))).astype(np.int64)
    result = PegasusCompiler(CompilerConfig(fuzzy_leaves=fuzzy_leaves)).compile_sequential(model, x)
    return result.compiled, x


class TestPHV:
    def test_allocation(self):
        phv = PHVAllocator(capacity_bits=4096)
        f = phv.allocate("x", 12)
        assert f.container_bits == 16
        assert phv.used_bits == 16

    def test_wide_field_spans_containers(self):
        phv = PHVAllocator(capacity_bits=4096)
        f = phv.allocate("wide", 100)
        assert f.container_bits == 128

    def test_overflow_raises(self):
        phv = PHVAllocator(capacity_bits=1024, reserved_bits=0)
        phv.allocate("a", 512)
        with pytest.raises(ResourceExceededError):
            phv.allocate("b", 1024)

    def test_cnn_l_raw_input_does_not_fit_phv(self):
        """The paper's motivation: 3840-bit inputs exceed the 4096-bit PHV."""
        phv = PHVAllocator(capacity_bits=TOFINO2.phv_bits)
        with pytest.raises(ResourceExceededError):
            phv.allocate("raw_window", 3840)
            phv.allocate("activations", 512)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PHVAllocator(capacity_bits=128).allocate("z", 0)


class TestTernaryExpansion:
    def test_tcam_matches_tree_exactly(self):
        rng = np.random.default_rng(0)
        x = np.floor(rng.uniform(0, 255, size=(300, 2)))
        tree = FuzzyTree.fit(x, n_leaves=8)
        entries = ternary_entries_for_tree(tree, key_bits=8)
        probe = np.floor(rng.uniform(0, 255, size=(200, 2)))
        for vec in probe:
            want = int(tree.predict_index(vec))
            got = tcam_lookup(entries, tuple(int(v) for v in vec))
            assert got == want

    def test_every_key_covered(self):
        rng = np.random.default_rng(1)
        x = np.floor(rng.uniform(0, 15, size=(100, 2)))
        tree = FuzzyTree.fit(x, n_leaves=4)
        entries = ternary_entries_for_tree(tree, key_bits=4)
        for a in range(16):
            for b in range(16):
                tcam_lookup(entries, (a, b))  # raises if uncovered

    def test_entry_count_matches_flat_accounting(self):
        rng = np.random.default_rng(2)
        x = np.floor(rng.uniform(0, 255, size=(300, 3)))
        tree = FuzzyTree.fit(x, n_leaves=8)
        # Emission uses the flat (single-lookup) expansion; the resource
        # model may pick the cheaper level-wise encoding.
        assert len(ternary_entries_for_tree(tree, 8)) == \
            tree._tcam_entries_flat(8, signed=False)
        assert tree.tcam_entries(key_bits=8) <= tree._tcam_entries_flat(8, False)


class TestPlacement:
    def test_layers_in_strictly_later_stages(self):
        compiled, _ = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        first_stage_of, last_stage_of = {}, {}
        for p in pipeline.placements:
            first_stage_of[p.layer_index] = min(
                first_stage_of.get(p.layer_index, p.start_stage), p.start_stage)
            last_stage_of[p.layer_index] = max(
                last_stage_of.get(p.layer_index, p.end_stage), p.end_stage)
        for layer in range(1, len(compiled.layers)):
            assert first_stage_of[layer] > last_stage_of[layer - 1]

    def test_all_tables_placed(self):
        compiled, _ = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        assert len(pipeline.placements) == compiled.num_tables

    def test_stage_budgets_respected(self):
        compiled, _ = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        sram_per_stage = {}
        tcam_per_stage = {}
        for p in pipeline.placements:
            for stage, sram, tcam in p.allocations:
                sram_per_stage[stage] = sram_per_stage.get(stage, 0) + sram
                tcam_per_stage[stage] = tcam_per_stage.get(stage, 0) + tcam
        assert all(v <= TOFINO2.sram_bits_per_stage for v in sram_per_stage.values())
        assert all(v <= TOFINO2.tcam_bits_per_stage for v in tcam_per_stage.values())

    def test_large_table_spans_stages(self):
        # A table bigger than one stage's SRAM must span multiple stages.
        from repro.core.mapping import CompiledModel, LookupLayer, SegmentTable
        from repro.utils.fixed_point import QFormat

        fmt = QFormat(16, 0)
        big = SegmentTable(
            segment=(0, 1), kind="exact",
            values_int=np.zeros((1 << 20, 2), dtype=np.int64),  # 33.5 Mb SRAM
            out_format=fmt, in_bits=8)
        model = CompiledModel(
            input_dim=1,
            layers=[LookupLayer(tables=[big], sum_reduce=False, out_format=fmt)])
        pipeline = place_model(model, TOFINO2)
        spans = [p.end_stage - p.start_stage for p in pipeline.placements]
        assert max(spans) >= 1

    def test_tiny_target_overflows(self):
        compiled, _ = _compiled_toy()
        tiny = TargetConfig(name="tiny", n_stages=1, sram_bits_per_stage=10_000,
                            tcam_bits_per_stage=100, action_bus_bits=64,
                            phv_bits=4096, line_rate_tbps=1.0)
        with pytest.raises(ResourceExceededError):
            place_model(compiled, tiny)

    def test_fits_generic_pisa(self):
        compiled, _ = _compiled_toy()
        pipeline = place_model(compiled, GENERIC_PISA)
        assert pipeline.n_stages_used <= GENERIC_PISA.n_stages


class TestPipelineExecution:
    def test_bit_exact_with_compiled_model(self):
        compiled, x = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        np.testing.assert_array_equal(pipeline.process(x[:100]),
                                      compiled.forward_int(x[:100]))

    def test_predict_agrees(self):
        compiled, x = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        np.testing.assert_array_equal(pipeline.predict(x[:50]), compiled.predict(x[:50]))

    def test_single_vector(self):
        compiled, x = _compiled_toy()
        pipeline = place_model(compiled, TOFINO2)
        out = pipeline.process(x[0])
        assert out.shape == (1, 3)

    def test_placed_mlp_b_runs_the_layer_forward(self):
        """``process`` is the placement check plus the model's own forward
        (one ``LookupLayer.forward_int`` per round) — on MLP-B the fused
        leaf-grid gather (8 two-byte tables), then one table that walks its
        tree (d = 16)."""
        ds = make_dataset("peerrush", flows_per_class=4, seed=0)
        views = dataset_views(ds.flows)
        model = build_model("MLP-B", ds.n_classes, seed=0)
        model.train(views)
        model.compile_dataplane(views)
        compiled = model.compiled
        first, second = compiled.layers
        assert [t._grid is not None for t in first.tables] == [True] * 8
        assert [t._grid is not None for t in second.tables] == [False]
        # Concat layers lay table outputs side by side in table order, which
        # is the segment order the next round's segments index.
        for layer in compiled.layers:
            starts = [t.segment[0] for t in layer.tables]
            assert starts == sorted(starts)
        pipeline = place_model(compiled, TOFINO2)
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.integers(0, 256, size=(200, compiled.input_dim)),
                            rng.integers(-600, 900, size=(100, compiled.input_dim))])
        np.testing.assert_array_equal(pipeline.process(x), compiled.forward_int(x))
        np.testing.assert_array_equal(pipeline.predict(x), compiled.predict(x))
        pipeline.placements.pop()
        with pytest.raises(PipelineError):
            pipeline.process(x)

    def test_unfused_model_uses_more_stages(self):
        rng = np.random.default_rng(3)
        model = nn.Sequential(
            nn.BatchNorm1d(8), nn.Linear(8, 6, rng=0), nn.ReLU(),
            nn.BatchNorm1d(6), nn.Linear(6, 3, rng=1))
        for p in model.parameters():
            p.data *= 0.1
        model.eval_mode()
        x = np.floor(rng.uniform(0, 255, size=(300, 8))).astype(np.int64)
        unfused = PegasusCompiler(CompilerConfig(fusion="none", act_bits=8,
                                                 refine=False)).compile_sequential(model, x)
        fused = PegasusCompiler(CompilerConfig(refine=False)).compile_sequential(model, x)
        p_unfused = place_model(unfused.compiled, TOFINO2)
        p_fused = place_model(fused.compiled, TOFINO2)
        assert p_fused.n_stages_used < p_unfused.n_stages_used
