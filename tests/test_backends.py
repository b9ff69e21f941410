"""Tests for the P4 and eBPF emitters.

The key test interprets the emitted control-plane entries with reference
TCAM semantics and asserts bit-exact agreement with the compiled model —
the role BMv2 plays in the paper's toolchain.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import PegasusCompiler, CompilerConfig
from repro.backends import emit_p4, emit_table_entries, emit_ebpf
from repro.backends.p4 import interpret_entries


@pytest.fixture(scope="module")
def compiled_and_data():
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Linear(6, 4, rng=0),
        nn.ReLU(),
        nn.Linear(4, 3, rng=1),
    )
    for p in model.parameters():
        p.data *= 0.1
    model.eval_mode()
    x = np.floor(rng.uniform(0, 255, size=(300, 6))).astype(np.int64)
    result = PegasusCompiler(CompilerConfig(fuzzy_leaves=8)).compile_sequential(
        model, x, name="toy")
    return result.compiled, x


class TestP4Emission:
    def test_source_structure(self, compiled_and_data):
        compiled, _ = compiled_and_data
        program = emit_p4(compiled)
        assert "control PegasusIngress_toy" in program.source
        assert program.source.count("table tbl_") == compiled.num_tables
        assert "|+|" in program.source  # saturating adds for SumReduce
        assert "ternary" in program.source

    def test_tables_have_entries(self, compiled_and_data):
        compiled, _ = compiled_and_data
        program = emit_p4(compiled)
        for li, layer in enumerate(compiled.layers):
            for ti in range(len(layer.tables)):
                assert program.entries_for(f"tbl_l{li}_s{ti}")

    def test_entry_count_matches_accounting(self, compiled_and_data):
        compiled, _ = compiled_and_data
        entries = emit_table_entries(compiled)
        want = 0
        for layer in compiled.layers:
            for t in layer.tables:
                if t.kind == "exact":
                    want += t.n_entries
                else:
                    # Emission always uses the flat single-lookup expansion.
                    want += t.tree._tcam_entries_flat(t.in_bits, t.in_signed)
        assert len(entries) == want

    def test_interpreted_entries_bit_exact(self, compiled_and_data):
        """The BMv2-surrogate check: entries reproduce the compiled model."""
        compiled, x = compiled_and_data
        program = emit_p4(compiled)
        probe = x[:40]
        np.testing.assert_array_equal(interpret_entries(program, compiled, probe),
                                      compiled.forward_int(probe))

    def test_interpreted_entries_on_unseen_inputs(self, compiled_and_data):
        compiled, _ = compiled_and_data
        program = emit_p4(compiled)
        rng = np.random.default_rng(99)
        probe = np.floor(rng.uniform(0, 255, size=(25, 6))).astype(np.int64)
        np.testing.assert_array_equal(interpret_entries(program, compiled, probe),
                                      compiled.forward_int(probe))

    def test_argmax_chain_present(self, compiled_and_data):
        compiled, _ = compiled_and_data
        program = emit_p4(compiled)
        assert "meta_class" in program.source
        assert program.source.count("if (meta.act") == 2  # 3 classes -> 2 compares


class TestEbpfEmission:
    def test_structure(self, compiled_and_data):
        compiled, _ = compiled_and_data
        source = emit_ebpf(compiled)
        assert 'SEC("xdp")' in source
        assert "values_l0_s0" in source
        assert "XDP_PASS" in source
        assert source.count("if (seg[") > 0  # comparison trees

    def test_value_tables_complete(self, compiled_and_data):
        compiled, _ = compiled_and_data
        source = emit_ebpf(compiled)
        for li, layer in enumerate(compiled.layers):
            for ti in range(len(layer.tables)):
                assert f"values_l{li}_s{ti}" in source

    def test_saturation_bounds_emitted(self, compiled_and_data):
        compiled, _ = compiled_and_data
        source = emit_ebpf(compiled)
        fmt = compiled.layers[0].out_format
        assert str(fmt.int_max) in source
        assert str(fmt.int_min) in source

    def test_balanced_braces(self, compiled_and_data):
        compiled, _ = compiled_and_data
        source = emit_ebpf(compiled)
        assert source.count("{") == source.count("}")

    def test_source_and_accounting_pinned(self, compiled_and_data):
        """The emitted program and the resource accounting are functions of
        the fitted trees alone: byte-identical across tree representations
        (digest and counts taken from the node-object trees of PR 11)."""
        import hashlib
        compiled, _ = compiled_and_data
        digest = hashlib.sha256(emit_ebpf(compiled).encode()).hexdigest()
        assert digest == ("3aab32eb1ef24354df384687feed032e"
                          "2ec10b24421efad5eb5568230029d3cc")
        assert (compiled.sram_bits(), compiled.tcam_bits()) == (960, 5056)

    def test_comparison_tree_is_preorder_nesting(self, compiled_and_data):
        """The stack-driven emitter against the obvious recursive one."""
        from repro.backends.ebpf import _emit_tree
        compiled, _ = compiled_and_data
        tree = next(t.tree for t in compiled.layers[0].tables if t.kind == "fuzzy")

        def nested(node, depth):
            pad = "    " * depth
            if node >= tree.n_internal:
                return [f"{pad}idx = {node - tree.n_internal};"]
            return ([f"{pad}if (seg[{tree.feature[node]}] <= "
                     f"{int(tree.threshold[node])}) {{"]
                    + nested(tree.child[2 * node], depth + 1)
                    + [f"{pad}}} else {{"]
                    + nested(tree.child[2 * node + 1], depth + 1)
                    + [f"{pad}}}"])

        lines: list[str] = []
        _emit_tree(tree, 2, lines)
        assert lines == nested(0, 2)
