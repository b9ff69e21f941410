"""Source invariants, as plain ``ast`` walks over every Python file of the
package, its scripts, benchmarks and examples, ``perf/`` and the tests.

The differential and golden walls prove replays reproduce today; these four
tests catch the line that would break that tomorrow: randomness only through
explicit seeded Generators (``repro.utils.rng.spawn_rngs`` / ``new_rng``), no
clock read on a decision path, no mutable default argument, and no line over
``[tool.ruff] line-length`` (ruff's selected rules leave E501 out, so this is
the only length gate). Calls resolve through each file's imports (``import
numpy.random as npr``, ``from time import perf_counter``); a file that does
not parse fails with a ``SyntaxError`` that names it.
"""

import ast
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path.relative_to(ROOT).as_posix()
               for tree in ("src", "scripts", "benchmarks", "examples",
                            "perf", "tests")
               for path in (ROOT / tree).rglob("*.py"))

#: ``numpy.random`` names that build an explicit stream rather than draw
#: from the shared legacy state.
NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "RandomState",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})
#: Decision paths: pure functions of the trace.
CLOCK_FREE = ("src/repro/dataplane/", "src/repro/core/",
              "src/repro/net/scenarios/")
#: Exact clock-read counts allowed on a decision path. The Fig. 9d harness
#: times a callable around its replay; no read reaches a decision.
CLOCK_ALLOWED = {("src/repro/dataplane/throughput.py", "time.perf_counter"): 2}
MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CALLS = frozenset({"list", "dict", "set", "deque", "defaultdict",
                           "Counter", "OrderedDict", "bytearray"})
LINE_LENGTH = int(re.search(
    r"^line-length\s*=\s*(\d+)\s*$",
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)[1])


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@lru_cache(maxsize=None)
def _scan(rel: str, text: str | None = None
          ) -> tuple[list[tuple[ast.Call, str]], list[ast.expr]]:
    """One pass over the file (or over ``text`` standing in for it): every
    ``(call, callee)``, with the callee's first name mapped through the
    file's imports, and every default argument value."""
    if text is None:
        text = (ROOT / rel).read_text(encoding="utf-8")
    aliases, calls, defaults = {}, [], []
    for node in ast.walk(ast.parse(text, filename=rel)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = \
                    alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Call) and (name := _dotted(node.func)):
            calls.append((node, name.partition(".")))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            defaults += node.args.defaults + node.args.kw_defaults
    return [(node, aliases.get(head, head) + dot + rest)
            for node, (head, dot, rest) in calls], defaults


def rng_violations(rel: str, text: str | None = None) -> list[str]:
    """``path:line: callee()`` for each stdlib ``random`` call, global-state
    ``numpy.random`` call and argument-less ``default_rng()``."""
    bad = []
    for call, name in _scan(rel, text)[0]:
        np_attr = name.split(".")[2] if name.startswith("numpy.random.") \
            else None
        if name.startswith("random.") \
                or (np_attr is not None and np_attr not in NP_RANDOM_OK) \
                or (np_attr == "default_rng"
                    and not call.args and not call.keywords):
            bad.append(f"{rel}:{call.lineno}: {name}()")
    return bad


def clock_reads(rel: str, text: str | None = None) -> dict[str, list[int]]:
    """The lines of each clock read, by callee; empty off decision paths."""
    reads = defaultdict(list)
    if rel.startswith(CLOCK_FREE):
        for call, name in _scan(rel, text)[0]:
            if name in CLOCK_CALLS:
                reads[name].append(call.lineno)
    return dict(reads)


def mutable_defaults(rel: str, text: str | None = None) -> list[str]:
    """``path:line`` of each mutable default argument."""
    bad = []
    for default in _scan(rel, text)[1]:
        callee = _dotted(default.func) \
            if isinstance(default, ast.Call) else None
        if isinstance(default, MUTABLE_LITERALS) or (
                callee and callee.split(".")[-1] in MUTABLE_CALLS):
            bad.append(f"{rel}:{default.lineno}")
    return bad


def long_lines(rel: str, text: str | None = None) -> list[str]:
    """``path:line`` of each line over ``LINE_LENGTH``."""
    if text is None:
        text = (ROOT / rel).read_text(encoding="utf-8")
    return [f"{rel}:{i}" for i, line in enumerate(text.splitlines(), 1)
            if len(line) > LINE_LENGTH]


def test_rng_is_explicit_and_seeded():
    assert [bad for rel in FILES for bad in rng_violations(rel)] == []


def test_decision_paths_read_no_clock():
    reads = {(rel, name): lines for rel in FILES
             for name, lines in clock_reads(rel).items()}
    counts = {key: len(lines) for key, lines in reads.items()}
    assert counts == CLOCK_ALLOWED, reads


def test_no_mutable_default_arguments():
    assert [bad for rel in FILES for bad in mutable_defaults(rel)] == []


def test_lines_fit_the_ruff_limit():
    assert [bad for rel in FILES for bad in long_lines(rel)] == []
