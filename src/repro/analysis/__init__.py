"""``repro.analysis``: the static invariant wall.

An AST-based linter (stdlib-only) that enforces, at the line that would
break them, the contracts the dynamic test wall assumes: RNG discipline,
wall-clock-free decision paths, pickle-safe registry entries,
EngineConfig / mirror-table coherence, and — via
the interprocedural callgraph + dtype dataflow layer — the columnar
wire-format contract (schema drift, hidden copies in zero-copy zones,
silent dtype promotion). See
``docs/ARCHITECTURE.md`` ("Invariants & static analysis") for the rule
table and suppression syntax.

Run it::

    python -m repro.analysis src/ scripts/ benchmarks/
    python -m repro.analysis --style          # + line length / compile smoke
    python -m repro.analysis --explain columnar-schema
"""

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.core import (Finding, ProjectRule, Rule, analyze_paths,
                                 analyze_source)
from repro.analysis.dtypeflow import DtypeFlow, promote_dtype, summarize
from repro.analysis.rules import default_rules
from repro.analysis.style import check_style
from repro.analysis.wire import (ColumnarSchemaRule, DtypePromotionRule,
                                 HiddenCopyRule, load_schema)

__all__ = [
    "CallGraph",
    "ColumnarSchemaRule",
    "DtypeFlow",
    "DtypePromotionRule",
    "Finding",
    "HiddenCopyRule",
    "ProjectRule",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "build_callgraph",
    "check_style",
    "default_rules",
    "load_schema",
    "promote_dtype",
    "summarize",
]
