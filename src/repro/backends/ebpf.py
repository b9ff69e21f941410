"""eBPF-C code generation.

Pegasus generalizes beyond PISA: any dataplane with comparisons, lookups and
additions can host the compiled pipeline (§6). Linux XDP has no TCAM, so
fuzzy tables compile to explicit comparison trees (branches are cheap in
eBPF) and exact tables to ``BPF_MAP_TYPE_ARRAY`` lookups; SumReduce becomes
saturating integer adds. The emitted C targets clang's BPF backend; offline
we validate structure, not kernel loading.
"""

from __future__ import annotations

import numpy as np

from repro.core.fuzzy import FuzzyTree
from repro.core.mapping import CompiledModel


def _emit_tree(tree: FuzzyTree, indent: int, lines: list[str]) -> None:
    """The tree as nested if/else, pre-order. The stack holds nodes still to
    open and the closing lines that follow their subtrees."""
    k = tree.n_internal
    stack: list = [(0, indent)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, depth = item
        pad = "    " * depth
        if node >= k:
            lines.append(f"{pad}idx = {node - k};")
            continue
        lines.append(f"{pad}if (seg[{tree.feature[node]}] <= "
                     f"{int(tree.threshold[node])}) {{")
        stack += [f"{pad}}}", (tree.child[2 * node + 1], depth + 1),
                  f"{pad}}} else {{", (tree.child[2 * node], depth + 1)]


def emit_ebpf(model: CompiledModel, program_name: str | None = None) -> str:
    """Generate an XDP C skeleton implementing the compiled model."""
    name = (program_name or model.name).replace("-", "_")
    lines = [
        "/* Auto-generated by the Pegasus compiler (eBPF backend). */",
        "#include <linux/bpf.h>",
        "#include <bpf/bpf_helpers.h>",
        "",
        f"/* model: {model.name}, {len(model.layers)} lookup rounds, "
        f"{model.num_tables} tables */",
        "",
    ]
    # Value tables as static arrays (full precision results, fixed point).
    for li, layer in enumerate(model.layers):
        for ti, table in enumerate(layer.tables):
            flat = np.asarray(table.values_int, dtype=np.int64).ravel()
            body = ", ".join(str(int(v)) for v in flat)
            lines.append(
                f"static const __s32 values_l{li}_s{ti}"
                f"[{table.n_entries} * {table.out_dim}] = {{ {body} }};")
    lines.append("")
    lines.append('SEC("xdp")')
    lines.append(f"int pegasus_{name}(struct xdp_md *ctx)")
    lines.append("{")
    lines.append(f"    __s32 act[{max(layer.out_dim for layer in model.layers)}];")
    lines.append(f"    __s32 in[{model.input_dim}];")
    lines.append("    __u32 idx;")
    lines.append("    /* feature extraction from packet headers elided */")
    for li, layer in enumerate(model.layers):
        src = "in" if li == 0 else "act"
        lines.append(f"    /* ---- lookup round {li} "
                     f"({'SumReduce' if layer.sum_reduce else 'concat'}) ---- */")
        lines.append(f"    __s32 out{li}[{layer.out_dim}] = {{0}};")
        for ti, table in enumerate(layer.tables):
            start, stop = table.segment
            lines.append("    {")
            lines.append(f"        __s32 seg[{stop - start}];")
            for d in range(stop - start):
                lines.append(f"        seg[{d}] = {src}[{start + d}];")
            if table.kind == "exact":
                lines.append(f"        idx = seg[0] - ({table.exact_lo});")
                lines.append(f"        if (idx >= {table.n_entries}) "
                             f"idx = {table.n_entries - 1};")
            else:
                _emit_tree(table.tree, 2, lines)
            for j in range(table.out_dim):
                lines.append(f"        out{li}[{j}] += "
                             f"values_l{li}_s{ti}[idx * {table.out_dim} + {j}];")
            lines.append("    }")
        hi = layer.out_format.int_max
        lo = layer.out_format.int_min
        lines.append(f"    /* saturate to {layer.out_format} */")
        for j in range(layer.out_dim):
            lines.append(f"    if (out{li}[{j}] > {hi}) out{li}[{j}] = {hi};")
            lines.append(f"    if (out{li}[{j}] < {lo}) out{li}[{j}] = {lo};")
        for j in range(layer.out_dim):
            lines.append(f"    act[{j}] = out{li}[{j}];")
    final = len(model.layers) - 1
    n_out = model.layers[final].out_dim
    lines.append("    /* argmax decision */")
    lines.append("    __u32 cls = 0;")
    lines.append("    __s32 best = act[0];")
    for j in range(1, n_out):
        lines.append(f"    if (act[{j}] > best) {{ best = act[{j}]; cls = {j}; }}")
    lines.append("    return XDP_PASS; /* cls carries the class decision */")
    lines.append("}")
    lines.append("")
    lines.append("char _license[] SEC(\"license\") = \"GPL\";")
    return "\n".join(lines)
