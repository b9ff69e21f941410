"""CLI: ``python -m repro.analysis [paths ...]`` — the local invariant gate.

Exit status is the contract: 0 when the tree is clean, 1 when any finding
survives suppression, 2 on usage errors. Human output is one
``path:line: [rule] message`` per finding (clickable in editors/CI logs);
``--json`` / ``--json-out`` emit the machine-readable form the CI job
uploads as an artifact on failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.core import analyze_paths
from repro.analysis.rules import default_rules
from repro.analysis.style import check_style

DEFAULT_PATHS = ("src", "scripts", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the Pegasus repro: "
                    "determinism, pickle-safety, and config-drift contracts "
                    "enforced at the line that would break them.")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             "(default: src scripts benchmarks)")
    parser.add_argument("--style", action="store_true",
                        help="also run the local style gate (line length + "
                             "compile smoke) — the full local CI "
                             "approximation in one command")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule names to run "
                             "(default: all)")
    parser.add_argument("--json", action="store_true",
                        help="print findings as JSON instead of text")
    parser.add_argument("--json-out", metavar="FILE",
                        help="additionally write the JSON report to FILE "
                             "(CI uploads this as the failure artifact)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule name + description and exit")
    parser.add_argument("--explain", metavar="RULE",
                        help="print one rule's full description and an "
                             "example finding, then exit")
    return parser


def _selected_rules(select: str | None):
    rules = default_rules()
    if select is None:
        return rules
    wanted = {name.strip() for name in select.split(",") if name.strip()}
    known = {rule.name for rule in rules}
    unknown = sorted(wanted - known)
    if unknown:
        raise SystemExit(
            f"unknown rule(s) {unknown}; known: {sorted(known)}")
    return [rule for rule in rules if rule.name in wanted]


def _explain(rule_name: str) -> int:
    for rule in default_rules():
        if rule.name == rule_name:
            print(rule.name)
            print(f"  {rule.description}")
            if rule.example:
                print(f"  example: {rule.example}")
            return 0
    raise SystemExit(f"unknown rule '{rule_name}'; see --list-rules")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.name:32s} {rule.description}")
        print(f"{'unused-suppression':32s} a 'reprolint: disable=' comment "
              f"that silenced nothing")
        if args.style:
            print(f"{'line-too-long':32s} style: ruff line-length limit")
            print(f"{'syntax-error':32s} style: compileall smoke")
        return 0
    # With a --select subset, a suppression for an unselected rule is
    # unjudgeable, so the staleness check only runs on full-rule runs.
    findings = analyze_paths(args.paths, rules=_selected_rules(args.select),
                             report_unused=args.select is None)
    if args.style:
        findings.extend(check_style(args.paths))
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report = {
        "paths": list(args.paths),
        "n_findings": len(findings),
        "findings": [f.to_json() for f in findings],
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        for finding in findings:
            print(finding)
        n = len(findings)
        gate = "invariant + style gate" if args.style else "invariant gate"
        if n:
            print(f"{gate}: {n} finding{'s' if n != 1 else ''}")
        else:
            print(f"{gate}: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
