"""``repro.analysis``: the static invariant wall.

An AST-based linter (stdlib-only) that enforces, at the line that would
break them, the contracts the dynamic test wall assumes: RNG discipline,
wall-clock-free decision paths, pickle-safe registry entries, no mutable
default arguments, and EngineConfig / mirror-table coherence. The columnar
wire format is not checked here: ``repro.dataplane.schema`` validates it at
run time, at the seams where it can break. See ``docs/ARCHITECTURE.md``
("Invariants & static analysis") for the rule table and suppression syntax.

Run it::

    python -m repro.analysis src/ scripts/ benchmarks/
    python -m repro.analysis --style          # + line length / compile smoke
    python -m repro.analysis --explain rng-discipline
"""

from repro.analysis.core import (Finding, ProjectRule, Rule, analyze_paths,
                                 analyze_source)
from repro.analysis.rules import default_rules
from repro.analysis.style import check_style

__all__ = [
    "Finding",
    "ProjectRule",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "check_style",
    "default_rules",
]
