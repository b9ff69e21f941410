"""The wire-format rules: schema drift, hidden copies, dtype promotion.

Three rules backed by the interprocedural layer (callgraph + dtypeflow),
all checking the columnar IPC contract declared in
``src/repro/dataplane/schema.py``:

- ``columnar-schema`` — every construction of a wire column (a dict-literal
  entry or ``cols["name"] = ...`` store whose key is a declared column, in
  a wire module) must carry exactly the declared dtype. The schema is read
  off the *AST* of ``schema.py`` — from the analyzed file set when present,
  else resolved on disk relative to the linted tree's own ``repro`` root
  (so temp copies lint against their own schema, and the mutation tests
  can inject drift into a copy).
- ``hidden-copy-on-hot-path`` — inside functions marked with a
  ``# reprolint: zone=zero-copy`` comment (on, or directly above, the
  ``def`` line), flag the allocation patterns that would silently break a
  preallocated shared-memory path: ``.astype`` without ``copy=False``,
  ``.tolist()``, ``np.concatenate``-family calls, ``pickle`` calls (the
  ring read/write functions of ``repro.serving.rings`` are zoned — a
  reintroduced pickle on the IPC path is a finding), fancy indexing, and
  per-packet Python list comprehensions.
- ``dtype-promotion`` — mixed int/float (and ``int64 x uint64``, which
  NumPy promotes to float64) arithmetic on arrays in the wire modules:
  the silent way an int64 column becomes float64 mid-pipeline.

Like every rule here, these run stdlib-only: ``schema.py`` is parsed,
never imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.core import FileContext, Finding, ProjectRule
from repro.analysis.dtypeflow import DtypeFlow, Hooks

SCHEMA_MODULE = "repro.dataplane.schema"
SCHEMA_RELPATH = Path("dataplane") / "schema.py"

#: Modules whose column constructions are held to the schema.
WIRE_MODULES = frozenset({
    "repro.dataplane.decisions",
    "repro.net.traces",
    "repro.serving.dispatcher",
    "repro.serving.parallel",
    "repro.serving.rings",
})

ZONE_RE = re.compile(r"#\s*reprolint:\s*zone=([A-Za-z0-9_\-]+)")
ZERO_COPY = "zero-copy"

_COPYING_NUMPY_CALLS = frozenset({
    "numpy.concatenate", "numpy.hstack", "numpy.vstack", "numpy.stack",
    "numpy.append",
})

#: Serialization calls banned in zero-copy zones: a pickle on the ring
#: read/write path silently reintroduces the per-serve copy the
#: shared-memory dataplane exists to remove.
_PICKLE_CALLS = frozenset({
    "pickle.dumps", "pickle.loads", "pickle.dump", "pickle.load",
})


# ---------------------------------------------------------------------------
# schema loading (AST only)
# ---------------------------------------------------------------------------

def parse_schema_tree(tree: ast.Module) -> dict[str, dict] | None:
    """Column name -> {dtype, rank, nullable} from schema.py's AST.

    Reads the pure-literal ``ColumnSchema(...)`` declarations; returns None
    when no declaration parses (so callers can report rather than silently
    pass a tree with a gutted schema).
    """
    columns: dict[str, dict] = {}
    found = False
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", ""))
                == "ColumnSchema" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Dict)):
            continue
        for key_node, value_node in zip(node.args[1].keys,
                                        node.args[1].values):
            if not (isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)
                    and isinstance(value_node, ast.Call)
                    and value_node.args
                    and isinstance(value_node.args[0], ast.Constant)
                    and isinstance(value_node.args[0].value, str)):
                continue
            found = True
            rank = 1
            if len(value_node.args) > 1 \
                    and isinstance(value_node.args[1], ast.Constant) \
                    and isinstance(value_node.args[1].value, int):
                rank = value_node.args[1].value
            nullable = any(
                kw.arg == "nullable" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in value_node.keywords)
            spec = {"dtype": value_node.args[0].value, "rank": rank,
                    "nullable": nullable}
            existing = columns.get(key_node.value)
            if existing is None:
                columns[key_node.value] = spec
    return columns if found else None


def _repro_root(path: Path) -> Path | None:
    """The directory of the *last* ``repro`` segment (temp-copy friendly)."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    return Path(*parts[:i + 1])


def load_schema(contexts: list[FileContext]
                ) -> tuple[dict[str, dict] | None, str]:
    """(columns, origin) — from the analyzed set, else the tree on disk."""
    for ctx in contexts:
        if ctx.module == SCHEMA_MODULE:
            return parse_schema_tree(ctx.tree), ctx.display_path
    for ctx in contexts:
        root = _repro_root(ctx.path)
        if root is None:
            continue
        candidate = root / SCHEMA_RELPATH
        if candidate.is_file():
            try:
                tree = ast.parse(candidate.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                return None, str(candidate)
            return parse_schema_tree(tree), str(candidate)
    return None, str(SCHEMA_RELPATH)


# ---------------------------------------------------------------------------
# shared dataflow pipeline (one per analyze_paths run)
# ---------------------------------------------------------------------------

class _Dataflow:
    def __init__(self, contexts: list[FileContext]):
        self.schema, self.schema_origin = load_schema(contexts)
        seeds = {name: spec["dtype"]
                 for name, spec in (self.schema or {}).items()}
        self.flow = DtypeFlow(contexts, schema=seeds)
        self.flow.compute(modules=WIRE_MODULES)


_CACHE: list = [None, None]              # [contexts identity, _Dataflow]


def dataflow_for(contexts: list[FileContext]) -> _Dataflow:
    """The shared per-run dataflow; all three rules reuse one fixpoint."""
    if _CACHE[0] is not contexts or _CACHE[1] is None:
        _CACHE[0] = contexts
        _CACHE[1] = _Dataflow(contexts)
    return _CACHE[1]


# ---------------------------------------------------------------------------
# columnar-schema
# ---------------------------------------------------------------------------

class _SchemaHooks(Hooks):
    def __init__(self, rule: "ColumnarSchemaRule", ctx: FileContext,
                 columns: dict[str, dict], seen: set[int]):
        self.rule = rule
        self.ctx = ctx
        self.columns = columns
        self.seen = seen

    def on_dict_item(self, key, value_av, key_node, value_node):
        self._check(key, value_av, value_node)

    def on_store(self, key, value_av, node):
        self._check(key, value_av, node)

    def _check(self, key: str, av: tuple, node: ast.AST) -> None:
        spec = self.columns.get(key)
        if spec is None or av[0] != "array" or av[1] is None:
            return                      # unknown dtypes never fire
        if av[1] != spec["dtype"] and id(node) not in self.seen:
            self.seen.add(id(node))
            self.ctx.report(
                node, self.rule.name,
                f"wire column '{key}' constructed as {av[1]}; the schema "
                f"(dataplane/schema.py) declares {spec['dtype']} — drift "
                f"here re-pickles or corrupts the IPC hot path")


class ColumnarSchemaRule(ProjectRule):
    name = "columnar-schema"
    description = ("every producer of a wire column (dict entries / "
                   "cols[...] stores in repro.net.traces, the decision "
                   "columns and the serving dispatchers) must construct "
                   "exactly the dtype declared in dataplane/schema.py")
    example = ("src/repro/serving/parallel.py:97: [columnar-schema] wire "
               "column 'seq' constructed as float64; the schema "
               "(dataplane/schema.py) declares int64 — drift here "
               "re-pickles or corrupts the IPC hot path")

    def check_project(self, contexts: list[FileContext]) -> list[Finding]:
        wire_ctxs = [c for c in contexts if c.module in WIRE_MODULES]
        if not wire_ctxs:
            return []
        df = dataflow_for(contexts)
        if not df.schema:
            wire_ctxs[0].report(
                wire_ctxs[0].tree, self.name,
                f"wire schema {df.schema_origin} is missing or declares no "
                f"columns; the columnar contract cannot be checked — "
                f"restore the ColumnSchema literals")
            return []
        seen: set[int] = set()
        for ctx in wire_ctxs:
            hooks = _SchemaHooks(self, ctx, df.schema, seen)
            for info in df.flow.graph.functions.values():
                if info.ctx is ctx:
                    df.flow.analyze(info, hooks=hooks)
        return []


# ---------------------------------------------------------------------------
# hidden-copy-on-hot-path
# ---------------------------------------------------------------------------

def zone_of(node: ast.AST, zone_lines: dict[int, str]) -> str | None:
    """The zone a function is marked with: a ``# reprolint: zone=`` comment
    on any signature line or the line directly above the ``def``."""
    body = getattr(node, "body", None)
    if not body:
        return None
    for line in range(node.lineno - 1, body[0].lineno):
        if line in zone_lines:
            return zone_lines[line]
    return None


class _FancyIndexHooks(Hooks):
    def __init__(self, on_fancy):
        self.on_fancy = on_fancy

    def on_subscript_load(self, node, recv_av, index_av):
        if index_av[0] == "array" or isinstance(node.slice, ast.List):
            self.on_fancy(node)


class HiddenCopyRule(ProjectRule):
    name = "hidden-copy-on-hot-path"
    description = ("functions marked '# reprolint: zone=zero-copy' must not "
                   "allocate per element: .astype without copy=False, "
                   ".tolist(), np.concatenate-family calls, pickle calls, "
                   "fancy indexing, and list comprehensions are findings "
                   "there")
    example = ("src/repro/serving/dispatcher.py:80: "
               "[hidden-copy-on-hot-path] .astype(...) without copy=False "
               "allocates a fresh array in zero-copy zone of "
               "'shard_hash_columns'")

    def check_project(self, contexts: list[FileContext]) -> list[Finding]:
        df = dataflow_for(contexts)
        for ctx in contexts:
            zone_lines = {
                lineno: match.group(1)
                for lineno, line in enumerate(ctx.source.splitlines(),
                                              start=1)
                if (match := ZONE_RE.search(line))
            }
            if not zone_lines:
                continue
            by_node = {id(info.node): info
                       for info in df.flow.graph.functions.values()
                       if info.ctx is ctx}
            reported: set[int] = set()
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if zone_of(node, zone_lines) != ZERO_COPY:
                    continue
                where = f"zero-copy zone of '{node.name}'"
                self._walk_zone(ctx, node, where, reported)
                info = by_node.get(id(node))
                if info is not None:
                    def flag(sub, _where=where):
                        if id(sub) not in reported:
                            reported.add(id(sub))
                            ctx.report(sub, self.name,
                                       f"fancy indexing gathers into a "
                                       f"fresh array in {_where}; use "
                                       f"slices/views or a preallocated "
                                       f"scatter target")
                    df.flow.analyze(info, hooks=_FancyIndexHooks(flag))
        return []

    def _walk_zone(self, ctx: FileContext, func: ast.AST, where: str,
                   reported: set[int]) -> None:
        for node in ast.walk(func):
            if id(node) in reported:
                continue
            if isinstance(node, ast.ListComp):
                reported.add(id(node))
                ctx.report(node, self.name,
                           f"per-packet Python list comprehension "
                           f"allocates in {where}; keep the loop columnar")
            elif isinstance(node, ast.Call):
                msg = self._call_violation(ctx, node)
                if msg:
                    reported.add(id(node))
                    ctx.report(node, self.name, f"{msg} in {where}")

    def _call_violation(self, ctx: FileContext, node: ast.Call
                        ) -> str | None:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "astype":
                for kw in node.keywords:
                    if kw.arg == "copy" \
                            and isinstance(kw.value, ast.Constant) \
                            and kw.value.value is False:
                        return None
                return (".astype(...) without copy=False allocates a "
                        "fresh array")
            if attr == "tolist":
                return ".tolist() round-trips the column through Python"
        resolved = ctx.resolve_call(node)
        if resolved in _COPYING_NUMPY_CALLS:
            short = resolved.replace("numpy.", "np.")
            return (f"{short}(...) concatenation copies every part; "
                    f"scatter into a preallocated array instead")
        if resolved in _PICKLE_CALLS:
            return (f"{resolved}(...) re-pickles the payload the "
                    f"shared-memory ring path exists to avoid")
        return None


# ---------------------------------------------------------------------------
# dtype-promotion
# ---------------------------------------------------------------------------

def _family(dtype: str | None) -> str | None:
    if dtype is None:
        return None
    if dtype.startswith("float"):
        return "float"
    if dtype.startswith(("int", "uint")):
        return "int"
    return None


class _PromotionHooks(Hooks):
    def __init__(self, rule: "DtypePromotionRule", ctx: FileContext,
                 seen: set[int]):
        self.rule = rule
        self.ctx = ctx
        self.seen = seen

    def on_binop(self, node, left_av, right_av):
        if id(node) in self.seen:
            return
        msg = self._violation(left_av, right_av)
        if msg:
            self.seen.add(id(node))
            self.ctx.report(node, self.rule.name, msg)

    @staticmethod
    def _violation(left: tuple, right: tuple) -> str | None:
        arrays = [av for av in (left, right) if av[0] == "array"]
        if not arrays or any(av[1] is None for av in arrays):
            return None
        if len(arrays) == 2:
            fams = {_family(av[1]) for av in arrays}
            if fams == {"int", "float"}:
                return ("mixed int/float array arithmetic "
                        f"({arrays[0][1]} x {arrays[1][1]}) silently "
                        f"promotes a wire column to float64; convert "
                        f"explicitly at a declared boundary")
            kinds = {av[1] for av in arrays}
            if "uint64" in kinds and any(k.startswith("int")
                                         for k in kinds):
                return ("int64 x uint64 arithmetic promotes to float64 "
                        "(uint64 has no signed superset); keep both "
                        "operands one unsigned dtype")
            return None
        scalar = left if right in arrays else right
        if scalar == ("float",) and _family(arrays[0][1]) == "int":
            return (f"python float scalar promotes this "
                    f"{arrays[0][1]} wire column to float64; scale with "
                    f"integer arithmetic or convert explicitly")
        return None


class DtypePromotionRule(ProjectRule):
    name = "dtype-promotion"
    description = ("no mixed int/float (or int64 x uint64) array "
                   "arithmetic in the wire modules — NumPy promotes those "
                   "to float64, silently breaking the declared column "
                   "dtypes")
    example = ("src/repro/serving/dispatcher.py:88: [dtype-promotion] "
               "python float scalar promotes this int64 wire column to "
               "float64; scale with integer arithmetic or convert "
               "explicitly")

    def check_project(self, contexts: list[FileContext]) -> list[Finding]:
        wire_ctxs = [c for c in contexts if c.module in WIRE_MODULES]
        if not wire_ctxs:
            return []
        df = dataflow_for(contexts)
        seen: set[int] = set()
        for ctx in wire_ctxs:
            hooks = _PromotionHooks(self, ctx, seen)
            for info in df.flow.graph.functions.values():
                if info.ctx is ctx:
                    df.flow.analyze(info, hooks=hooks)
        return []
