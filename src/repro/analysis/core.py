"""The invariant-linter core: findings, rules, suppressions, one-pass dispatch.

The dynamic walls (differential fuzzing, golden replays, mutation tests)
prove the engine's contracts hold *today*; this package is the static wall
that flags the change that would break them at the line that introduces it.
Everything here is stdlib-only (``ast`` + ``tokenize``) so the gate runs on
machines without any third-party lint tooling installed.

Vocabulary:

- :class:`Finding` — one ``(rule, path, line, msg)`` violation record.
- :class:`Rule` — a named check that registers interest in AST node types
  via :meth:`Rule.visitors`; every rule's handlers run in **one** recursive
  pass per file (single-pass visitor dispatch — the tree is never re-walked
  per rule).
- :class:`ProjectRule` — a cross-file check that runs once over the whole
  analyzed file set (e.g. config/docs drift).
- :class:`FileContext` — per-file state handed to handlers: the parsed
  tree, resolved dotted module name, an import table for resolving aliased
  calls (``np.random.shuffle`` -> ``numpy.random.shuffle``), and
  ``report()``.

Suppressions: a ``# reprolint: disable=<rule>[,<rule>...]`` comment on (or
inside the span of) the flagged statement silences that rule there. Every
suppression must earn its keep — one that silences nothing is itself
reported as ``unused-suppression``, so stale exemptions cannot accumulate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: The rule name that flags suppression comments which silenced nothing.
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line."""

    rule: str
    path: str
    line: int
    msg: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "msg": self.msg}


class Rule:
    """One per-file invariant check.

    Subclasses set ``name`` / ``description`` and return a mapping of AST
    node-type *names* to bound handlers from :meth:`visitors`; the walker
    calls each handler as ``handler(ctx, node)`` during the single pass.
    ``begin_file`` runs before the pass, for per-file state.
    """

    name = ""
    description = ""
    example = ""                # a representative finding line, for --explain

    def visitors(self) -> dict:
        return {}

    def begin_file(self, ctx: "FileContext") -> None:
        pass


class ProjectRule(Rule):
    """A check over the whole analyzed file set (cross-file invariants)."""

    def check_project(self, contexts: list["FileContext"]) -> list[Finding]:
        raise NotImplementedError


def module_name_for(path: Path) -> str | None:
    """Dotted in-repo module name, or None for non-package files.

    Resolved from the *last* ``repro`` path segment so temp copies of real
    modules (``/tmp/x/src/repro/dataplane/foo.py``) lint under the same
    module-scoped rules as the originals.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = parts[i:]
    if mod_parts[-1].endswith(".py"):
        mod_parts[-1] = mod_parts[-1][:-3]
    if mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts)


class ImportTable:
    """Alias -> real dotted name map for one file.

    Flat (scope-less) on purpose: shadowing an imported module name with a
    local of the same name is itself suspicious code, and treating the name
    as the import everywhere only errs toward flagging.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self.aliases[name] = alias.name if alias.asname \
                        else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Map the first segment through the import table."""
        head, _, rest = dotted.partition(".")
        real = self.aliases.get(head)
        if real is None:
            return dotted
        return f"{real}.{rest}" if rest else real


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class FileContext:
    """Everything the handlers of one file share."""

    def __init__(self, path: Path, display_path: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)
        self.is_test = any(part == "tests" for part in path.parts) \
            or path.name.startswith("test_") or path.name == "conftest.py"
        self.imports = ImportTable(tree)
        self.findings: list[Finding] = []

    def resolve_call(self, node: ast.Call) -> str | None:
        """The real dotted name a call targets, via the import table."""
        dotted = dotted_name(node.func)
        return self.imports.resolve(dotted) if dotted else None

    def report(self, node: ast.AST, rule: str, msg: str) -> None:
        self.findings.append(Finding(rule, self.display_path,
                                     getattr(node, "lineno", 1), msg))


class _Walker:
    """Single recursive pass dispatching each node to interested rules."""

    def __init__(self, ctx: FileContext, rules: list[Rule]):
        self.ctx = ctx
        self.dispatch: dict[str, list] = {}
        for rule in rules:
            for node_type, handler in rule.visitors().items():
                self.dispatch.setdefault(node_type, []).append(handler)

    def walk(self, node: ast.AST) -> None:
        for handler in self.dispatch.get(type(node).__name__, ()):
            handler(self.ctx, node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Line -> suppressed rule names, from ``# reprolint: disable=`` comments."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_RE.search(line)
        if match:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            if rules:
                out[lineno] = rules
    return out


def _node_spans(tree: ast.Module) -> dict[int, int]:
    """Start line -> max end line over all nodes starting there."""
    spans: dict[int, int] = {}
    for node in ast.walk(tree):
        lineno = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if lineno is not None and end is not None:
            spans[lineno] = max(spans.get(lineno, lineno), end)
    return spans


def apply_suppressions(ctx: FileContext,
                       report_unused: bool = True) -> list[Finding]:
    """Drop suppressed findings; report suppressions that earned nothing.

    A suppression comment matches a finding when it sits on any line of the
    statement that *starts* at the finding's line (multi-line calls can
    carry the comment on their closing line). ``report_unused=False`` skips
    the staleness check — correct when only a subset of rules ran, since a
    suppression for an unselected rule is unjudgeable on that run.
    """
    suppressions = parse_suppressions(ctx.source)
    if not suppressions:
        return ctx.findings
    spans = _node_spans(ctx.tree)
    used: set[int] = set()
    kept: list[Finding] = []
    for finding in ctx.findings:
        end = spans.get(finding.line, finding.line)
        hit = None
        for line in range(finding.line, end + 1):
            rules = suppressions.get(line)
            if rules and (finding.rule in rules or "all" in rules):
                hit = line
                break
        if hit is None:
            kept.append(finding)
        else:
            used.add(hit)
    if not report_unused:
        return kept
    for line in sorted(set(suppressions) - used):
        names = ",".join(sorted(suppressions[line]))
        kept.append(Finding(
            UNUSED_SUPPRESSION, ctx.display_path, line,
            f"suppression 'reprolint: disable={names}' matched no finding; "
            f"remove it (stale exemptions hide future violations)"))
    return kept


def iter_python_files(paths: list[str | Path]) -> list[tuple[Path, str]]:
    """(resolved path, display path) for every .py under the given paths."""
    skip_dirs = {"__pycache__", ".git", ".hypothesis", "build", "dist",
                 ".venv", "node_modules"}
    out: list[tuple[Path, str]] = []
    seen: set[Path] = set()
    for raw in paths:
        base = Path(raw)
        if base.is_file():
            candidates = [base]
        else:
            candidates = sorted(
                p for p in base.rglob("*.py")
                if not any(part in skip_dirs for part in p.parts))
        for path in candidates:
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append((resolved, str(path)))
    return out


def _lint_file(source: str, path: Path, display: str, rules: list[Rule]
               ) -> tuple[list[Finding], FileContext | None]:
    """Run the per-file rules; suppressions are NOT applied yet."""
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [Finding("syntax-error", display, exc.lineno or 1,
                        f"file does not parse: {exc.msg}")], None
    ctx = FileContext(path, display, source, tree)
    per_file = [r for r in rules if not isinstance(r, ProjectRule)]
    for rule in per_file:
        rule.begin_file(ctx)
    _Walker(ctx, per_file).walk(tree)
    return [], ctx


def analyze_source(source: str, path: Path, display_path: str | None = None,
                   rules: list[Rule] | None = None
                   ) -> tuple[list[Finding], FileContext | None]:
    """Lint one in-memory source blob; (findings, context or None on error)."""
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    display = display_path or str(path)
    findings, ctx = _lint_file(source, path, display, rules)
    if ctx is not None:
        findings = apply_suppressions(ctx)
    return findings, ctx


def analyze_paths(paths: list[str | Path],
                  rules: list[Rule] | None = None,
                  report_unused: bool = True) -> list[Finding]:
    """Lint every .py file under ``paths`` with the given (or default) rules.

    Project rules run after all files are parsed and report *through* the
    per-file contexts, so ``# reprolint: disable=`` comments silence their
    findings exactly like any per-file rule's.
    """
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    findings: list[Finding] = []
    contexts: list[FileContext] = []
    for path, display in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding("unreadable-file", display, 1, str(exc)))
            continue
        errors, ctx = _lint_file(source, path, display, rules)
        findings.extend(errors)
        if ctx is not None:
            contexts.append(ctx)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(contexts))
    for ctx in contexts:
        findings.extend(apply_suppressions(ctx, report_unused=report_unused))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
