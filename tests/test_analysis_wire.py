"""The interprocedural layer and the wire-format rules.

Four layers:

1. **Call graph** — module functions, methods, ``self.``/constructor-typed
   resolution, and the real edges the wire rules depend on
   (``ShardedDispatcher.serve_trace -> ... -> shard_hash_columns``).
2. **Dtype dataflow** — the promotion lattice, per-function summaries on
   the shipped tree (``shard_hash_columns`` must summarize as
   ``array[uint64]``), and schema-seeded subscripts.
3. **Rules** — true-positive and clean-negative fixtures for
   ``columnar-schema``, ``hidden-copy-on-hot-path``, ``dtype-promotion``,
   via ``analyze_paths`` on temp trees carrying their own schema copy.
4. **CLI mutations** — the acceptance gates: dtype drift injected into a
   temp copy of ``parallel.py`` and a copying ``.astype`` injected into
   the zero-copy zone of ``dispatcher.py`` both fail ``--select`` runs
   naming rule + line; unmutated copies pass; the shipped tree is clean.
"""

from __future__ import annotations

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_callgraph, constructor_locals
from repro.analysis.cli import main as cli_main
from repro.analysis.core import FileContext, analyze_paths, iter_python_files
from repro.analysis.dtypeflow import (DtypeFlow, join, promote_dtype,
                                      render_av, summarize)
from repro.analysis.wire import (WIRE_MODULES, ColumnarSchemaRule,
                                 DtypePromotionRule, HiddenCopyRule,
                                 load_schema, parse_schema_tree, zone_of)

REPO = Path(__file__).resolve().parent.parent
WIRE_RULES = [ColumnarSchemaRule, HiddenCopyRule, DtypePromotionRule]
SELECT = "columnar-schema,hidden-copy-on-hot-path,dtype-promotion"


def contexts_for(paths: list[Path]) -> list[FileContext]:
    out = []
    for path, display in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        out.append(FileContext(path, display, source, ast.parse(source)))
    return out


@pytest.fixture(scope="module")
def repo_contexts():
    return contexts_for([REPO / "src"])


@pytest.fixture(scope="module")
def repo_graph(repo_contexts):
    return build_callgraph(repo_contexts)


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, body in files.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


MINI_SCHEMA = """
    WIRE_COLUMNS = ColumnSchema("wire", {
        "ts": ColumnSpec("float64", 1),
        "length": ColumnSpec("int64", 1),
        "payload": ColumnSpec("float64", 2, nullable=True),
    })
    DECISION_COLUMNS = ColumnSchema("decision", {
        "seq": ColumnSpec("int64", 1),
    })
"""


def wire_findings(root: Path) -> list:
    return analyze_paths([root], rules=[cls() for cls in WIRE_RULES],
                         report_unused=False)


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------

class TestCallGraph:
    def test_collects_functions_and_methods(self, repo_graph):
        assert "repro.serving.dispatcher.shard_hash_columns" \
            in repo_graph.functions
        info = repo_graph.functions["repro.net.traces.Trace.to_columns"]
        assert info.cls == "repro.net.traces.Trace"
        assert info.module == "repro.net.traces"

    def test_parallel_serve_trace_reaches_the_hash(self, repo_graph):
        # One serve template, defined once on the base dispatcher (the
        # parallel subclass inherits it): serve_trace -> _serve -> _split
        # -> shard_hash_columns, every hop a resolved self-call.
        base = "repro.serving.dispatcher.ShardedDispatcher."
        assert "repro.serving.parallel.ParallelDispatcher.serve_trace" \
            not in repo_graph.functions
        assert base + "_serve" in repo_graph.edges[base + "serve_trace"]
        assert {base + "_split", base + "_execute"} \
            <= repo_graph.edges[base + "_serve"]
        assert "repro.serving.dispatcher.shard_hash_columns" \
            in repo_graph.edges[base + "_split"]
        # The ring write/read seams resolve cross-module: the pump gathers
        # into ingress slots, the absorb scatters egress slots.
        pump_edges = repo_graph.edges[
            "repro.serving.parallel.ParallelDispatcher._pump"]
        assert "repro.serving.rings.write_ingress_chunk" in pump_edges
        absorb_edges = repo_graph.edges[
            "repro.serving.parallel.ParallelDispatcher._absorb"]
        assert "repro.serving.rings.scatter_decision_chunk" in absorb_edges

    def test_self_method_resolution(self, repo_graph):
        edges = repo_graph.edges[
            "repro.serving.parallel.ParallelDispatcher._execute"]
        assert any(e.startswith(
            "repro.serving.parallel.ParallelDispatcher.") for e in edges)

    def test_constructor_locals(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": """
            class Thing:
                def ping(self):
                    return 1

            def use():
                t = Thing()
                return t.ping()

            def reassigned():
                t = Thing()
                t = 3
                return t
        """})
        graph = build_callgraph(contexts_for([root]))
        use = graph.functions["repro.mod.use"]
        assert constructor_locals(graph, use) == {"t": "repro.mod.Thing"}
        assert "repro.mod.Thing.ping" in graph.edges["repro.mod.use"]
        re_info = graph.functions["repro.mod.reassigned"]
        assert constructor_locals(graph, re_info) == {}

    def test_import_alias_resolution(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/a.py": "def helper():\n    return 0\n",
            "repro/b.py": ("from repro.a import helper as h\n\n\n"
                           "def caller():\n    return h()\n"),
        })
        graph = build_callgraph(contexts_for([root]))
        assert graph.edges["repro.b.caller"] == {"repro.a.helper"}


# ---------------------------------------------------------------------------
# dtype dataflow
# ---------------------------------------------------------------------------

class TestPromotionLattice:
    @pytest.mark.parametrize("a,b,expected", [
        ("int64", "int64", "int64"),
        ("int32", "int64", "int64"),
        ("uint8", "uint64", "uint64"),
        ("int64", "uint64", "float64"),      # no signed superset
        ("int64", "float64", "float64"),
        ("float32", "float64", "float64"),
        ("int64", "object", "object"),
        ("bool", "int64", "int64"),
    ])
    def test_promote_dtype(self, a, b, expected):
        assert promote_dtype(a, b) == expected
        assert promote_dtype(b, a) == expected

    def test_join_arrays(self):
        assert join(("array", "int64"), ("array", "int64")) \
            == ("array", "int64")
        assert join(("array", "int64"), ("array", "float64")) \
            == ("array", None)

    def test_render(self):
        assert render_av(("array", "uint64")) == "array[uint64]"
        assert render_av(("top",)) == "top"


class TestDtypeFlowOnShippedTree:
    @pytest.fixture(scope="class")
    def flow(self, repo_contexts):
        flow = DtypeFlow(repo_contexts,
                         schema={"ts": "float64", "src_ip": "int64"})
        flow.compute(modules=WIRE_MODULES)
        return flow

    def test_hash_summary_is_uint64(self, flow):
        summary = summarize(flow, modules=WIRE_MODULES)
        fn = summary["functions"][
            "repro.serving.dispatcher.shard_hash_columns"]
        assert fn["returns"] == "array[uint64]"

    def test_summary_counts(self, flow):
        summary = summarize(flow, modules=WIRE_MODULES)
        assert summary["n_functions"] > 10
        assert all(info["module"] in WIRE_MODULES
                   for info in summary["functions"].values())

    def test_schema_seeded_subscript(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": """
            def f(cols):
                return cols["ts"] + cols["ts"]
        """})
        contexts = contexts_for([root])
        flow = DtypeFlow(contexts, schema={"ts": "float64"})
        flow.compute()
        info = flow.graph.functions["repro.mod.f"]
        assert flow.analyze(info) == ("array", "float64")

    def test_interprocedural_summary_flows_through_call(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": """
            import numpy as np


            def make(n):
                return np.zeros(n, dtype=np.uint64)


            def use(n):
                return make(n)
        """})
        flow = DtypeFlow(contexts_for([root]))
        flow.compute()
        assert flow.analyze(flow.graph.functions["repro.mod.use"]) \
            == ("array", "uint64")


# ---------------------------------------------------------------------------
# schema loading
# ---------------------------------------------------------------------------

class TestSchemaLoading:
    def test_shipped_schema_parses(self, repo_contexts):
        schema, origin = load_schema(repo_contexts)
        assert origin.endswith("schema.py")
        assert schema["ts"] == {"dtype": "float64", "rank": 1,
                                "nullable": False}
        assert schema["payload"] == {"dtype": "float64", "rank": 2,
                                     "nullable": True}
        assert schema["seq"]["dtype"] == "int64"

    def test_disk_fallback_resolves_relative_to_linted_tree(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dataplane/schema.py": MINI_SCHEMA,
            "repro/net/traces.py": "def f():\n    return 1\n",
        })
        # Only lint traces.py: the schema must be found on disk.
        contexts = contexts_for([root / "repro" / "net"])
        schema, origin = load_schema(contexts)
        assert schema is not None and "length" in schema
        assert str(root) in origin

    def test_gutted_schema_returns_none(self):
        tree = ast.parse("WIRE_COLUMNS = None\n")
        assert parse_schema_tree(tree) is None

    def test_missing_schema_is_a_finding(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/net/traces.py": "def f():\n    return 1\n",
        })
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["columnar-schema"]
        assert "missing" in findings[0].msg


# ---------------------------------------------------------------------------
# rule fixtures (true positive + clean negative each)
# ---------------------------------------------------------------------------

def mini_tree(tmp_path: Path, traces_body: str,
              rel: str = "repro/net/traces.py") -> Path:
    return write_tree(tmp_path, {
        "repro/dataplane/schema.py": MINI_SCHEMA,
        rel: traces_body,
    })


class TestColumnarSchemaRule:
    def test_dict_literal_drift_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def to_columns(n):
                return {"ts": np.zeros(n, dtype=np.float32),
                        "length": np.zeros(n, dtype=np.int64)}
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["columnar-schema"]
        assert "'ts'" in findings[0].msg and "float32" in findings[0].msg

    def test_subscript_store_drift_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def fill(cols, n):
                cols["length"] = np.arange(n, dtype=np.int32)
                return cols
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["columnar-schema"]
        assert "'length'" in findings[0].msg

    def test_drift_through_a_helper_call_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def make_ts(n):
                return np.zeros(n, dtype=np.float32)


            def to_columns(n):
                return {"ts": make_ts(n)}
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["columnar-schema"]

    def test_declared_dtypes_clean(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def to_columns(n):
                cols = {"ts": np.zeros(n, dtype=np.float64)}
                cols["length"] = np.arange(n, dtype=np.int64)
                cols["payload"] = np.zeros((n, 4), dtype=np.float64)
                return cols
        """)
        assert wire_findings(root) == []

    def test_non_wire_module_not_checked(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dataplane/schema.py": MINI_SCHEMA,
            "repro/eval/reporting.py": """
                import numpy as np


                def stats(n):
                    return {"ts": np.zeros(n, dtype=np.float32)}
            """,
        })
        assert wire_findings(root) == []

    def test_unknown_dtype_never_fires(self, tmp_path):
        root = mini_tree(tmp_path, """
            def to_columns(source):
                return {"ts": source.read()}
        """)
        assert wire_findings(root) == []


class TestHiddenCopyRule:
    def test_astype_without_copy_false_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            # reprolint: zone=zero-copy
            def hot(arr):
                return arr.astype(np.uint64)
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["hidden-copy-on-hot-path"]
        assert "astype" in findings[0].msg and "'hot'" in findings[0].msg

    def test_astype_with_copy_false_clean(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            # reprolint: zone=zero-copy
            def hot(arr):
                return arr.astype(np.uint64, copy=False)
        """)
        assert wire_findings(root) == []

    def test_tolist_concatenate_listcomp_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            # reprolint: zone=zero-copy
            def hot(parts, arr):
                a = np.concatenate(parts)
                b = arr.tolist()
                c = [x + 1 for x in b]
                return a, b, c
        """)
        rules = sorted(f.msg for f in wire_findings(root))
        assert len(rules) == 3
        assert any("concatenat" in m for m in rules)
        assert any("tolist" in m for m in rules)
        assert any("comprehension" in m for m in rules)

    def test_fancy_indexing_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            # reprolint: zone=zero-copy
            def hot(arr):
                member = np.flatnonzero(arr > 0)
                return arr[member]
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["hidden-copy-on-hot-path"]
        assert "fancy indexing" in findings[0].msg

    def test_pickle_in_zone_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import pickle


            # reprolint: zone=zero-copy
            def hot(chunk):
                return pickle.dumps(chunk)
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["hidden-copy-on-hot-path"]
        assert "re-pickles" in findings[0].msg

    def test_pickle_outside_zone_clean(self, tmp_path):
        root = mini_tree(tmp_path, """
            import pickle


            def cold(chunk):
                return pickle.dumps(chunk)
        """)
        assert wire_findings(root) == []

    def test_unzoned_function_not_checked(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def cold(parts):
                return np.concatenate(parts).tolist()
        """)
        assert wire_findings(root) == []

    def test_zones_apply_outside_wire_modules_too(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dataplane/schema.py": MINI_SCHEMA,
            "repro/eval/hotloop.py": """
                # reprolint: zone=zero-copy
                def hot(arr):
                    return arr.tolist()
            """,
        })
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["hidden-copy-on-hot-path"]

    def test_zone_of_reads_def_line_and_line_above(self):
        src = ("# reprolint: zone=zero-copy\n"
               "def a():\n    return 1\n\n\n"
               "def b():  # reprolint: zone=zero-copy\n    return 2\n\n\n"
               "def c():\n    return 3\n")
        tree = ast.parse(src)
        zone_lines = {i: "zero-copy" for i, line in
                      enumerate(src.splitlines(), start=1)
                      if "zone=" in line}
        zones = {node.name: zone_of(node, zone_lines)
                 for node in tree.body}
        assert zones == {"a": "zero-copy", "b": "zero-copy", "c": None}


class TestDtypePromotionRule:
    def test_int_float_array_mix_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def mix(n):
                a = np.zeros(n, dtype=np.int64)
                b = np.zeros(n, dtype=np.float64)
                return a + b
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["dtype-promotion"]
        assert "int64 x float64" in findings[0].msg \
            or "float64 x int64" in findings[0].msg

    def test_int64_uint64_mix_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def mix(n):
                a = np.zeros(n, dtype=np.int64)
                b = np.zeros(n, dtype=np.uint64)
                return a * b
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["dtype-promotion"]
        assert "uint64" in findings[0].msg

    def test_float_scalar_on_int_column_flagged(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def scale(n):
                a = np.zeros(n, dtype=np.int64)
                return a * 1.5
        """)
        findings = wire_findings(root)
        assert [f.rule for f in findings] == ["dtype-promotion"]

    def test_same_family_arithmetic_clean(self, tmp_path):
        root = mini_tree(tmp_path, """
            import numpy as np


            def fine(n):
                a = np.zeros(n, dtype=np.uint64)
                b = np.full(n, 3, dtype=np.uint64)
                scaled = a * b + np.uint64(7)
                f = np.zeros(n, dtype=np.float64) * 2.0
                return scaled, f, a * 3
        """)
        assert wire_findings(root) == []

    def test_unknown_dtypes_never_fire(self, tmp_path):
        root = mini_tree(tmp_path, """
            def unknown(a, b):
                return a * b
        """)
        assert wire_findings(root) == []


# ---------------------------------------------------------------------------
# CLI: acceptance mutations, --explain, --dtype-summary-out
# ---------------------------------------------------------------------------

def copy_wire_tree(tmp_path: Path) -> Path:
    """A temp tree carrying the real schema + wire modules (and their
    import anchors), so project rules resolve everything locally."""
    for rel in ("src/repro/dataplane/schema.py",
                "src/repro/serving/dispatcher.py",
                "src/repro/serving/parallel.py",
                "src/repro/serving/rings.py",
                "src/repro/net/traces.py"):
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, dest)
    return tmp_path


class TestCliMutations:
    def test_dtype_drift_in_parallel_fails_the_gate(self, tmp_path, capsys):
        root = copy_wire_tree(tmp_path)
        target = root / "src/repro/serving/parallel.py"
        text = target.read_text(encoding="utf-8")
        anchor = 'dtype=decision_dtype("seq")'
        assert anchor in text
        mutated = text.replace(anchor, "dtype=np.float64", 1)
        target.write_text(mutated, encoding="utf-8")

        rc = cli_main(["--select", SELECT, str(root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[columnar-schema]" in out and "'seq'" in out
        # The finding anchors at the start of the constructed value (the
        # dict entry's np.zeros call); the mutated kwarg may sit on a
        # continuation line of that same expression.
        import re
        reported = int(re.search(r"parallel\.py:(\d+):", out).group(1))
        mutated_line = next(i for i, text_line
                            in enumerate(mutated.splitlines(), start=1)
                            if "dtype=np.float64" in text_line)
        span = mutated.splitlines()[reported - 1:mutated_line]
        assert reported <= mutated_line and '"seq"' in "".join(span)

    def test_astype_in_zero_copy_zone_fails_the_gate(self, tmp_path, capsys):
        root = copy_wire_tree(tmp_path)
        target = root / "src/repro/serving/dispatcher.py"
        text = target.read_text(encoding="utf-8")
        anchor = "            h = h * prime\n"
        assert text.count(anchor) == 1
        injected = anchor + "    h = h.astype(np.uint64)\n"
        mutated = text.replace(anchor, injected, 1)
        target.write_text(mutated, encoding="utf-8")

        rc = cli_main(["--select", SELECT, str(root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[hidden-copy-on-hot-path]" in out
        line = mutated.splitlines().index("    h = h.astype(np.uint64)") + 1
        assert f":{line}:" in out
        assert "shard_hash_columns" in out

    def test_unmutated_copies_pass_the_gate(self, tmp_path, capsys):
        root = copy_wire_tree(tmp_path)
        rc = cli_main(["--select", SELECT, str(root)])
        assert rc == 0

    def test_shipped_tree_is_clean_under_wire_rules(self, capsys):
        rc = cli_main(["--select", SELECT, str(REPO / "src"),
                       str(REPO / "scripts"), str(REPO / "benchmarks")])
        out = capsys.readouterr().out
        assert rc == 0, out

    def test_select_subset_skips_suppression_staleness(self, tmp_path,
                                                       capsys):
        # A suppression for an unselected rule is unjudgeable: a subset
        # run must not call it stale.
        dest = tmp_path / "mod.py"
        dest.write_text("import random\n\n\n"
                        "def f(xs):\n"
                        "    random.shuffle(xs)  "
                        "# reprolint: disable=rng-discipline\n",
                        encoding="utf-8")
        assert cli_main(["--select", SELECT, str(dest)]) == 0
        assert cli_main([str(dest)]) == 0      # full run: suppression earns


class TestCliSurfaces:
    def test_explain_known_rule(self, capsys):
        assert cli_main(["--explain", "columnar-schema"]) == 0
        out = capsys.readouterr().out
        assert "columnar-schema" in out
        assert "example:" in out

    def test_explain_every_default_rule(self, capsys):
        from repro.analysis.rules import default_rules
        for rule in default_rules():
            assert cli_main(["--explain", rule.name]) == 0
            assert rule.name in capsys.readouterr().out

    def test_explain_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli_main(["--explain", "no-such-rule"])

    def test_dtype_summary_out(self, tmp_path, capsys):
        out_file = tmp_path / "summary.json"
        rc = cli_main([str(REPO / "src"),
                       "--select", SELECT,
                       "--dtype-summary-out", str(out_file)])
        assert rc == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        fn = report["functions"][
            "repro.serving.dispatcher.shard_hash_columns"]
        assert fn["returns"] == "array[uint64]"
        assert report["schema_columns"]["ts"]["dtype"] == "float64"
        assert report["n_functions"] == len(report["functions"])
