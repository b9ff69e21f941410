"""The documented configuration stays real.

Every ```` ```python ```` block in the README and the architecture doc must
parse, every keyword it passes to ``EngineConfig(...)`` must be an
``EngineConfig`` field, every ``EngineConfig(...)`` whose arguments are all
literals must construct, every name it imports from ``repro`` must exist,
and every ``engine.<attr>`` it reads must resolve — so deleting or renaming
a field, a value, a function or a method cannot leave a documented example
that no longer runs. The other way round, every ``EngineConfig`` field must
be named in the architecture doc, so adding one cannot leave it undocumented.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from repro.serving import EngineConfig, PegasusEngine

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/ARCHITECTURE.md")
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _python_blocks():
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for i, match in enumerate(_BLOCK.finditer(text)):
            yield pytest.param(match.group(1), id=f"{doc}#{i}")


def _engine_config_calls(tree: ast.AST) -> list[ast.Call]:
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if called == "EngineConfig":
                calls.append(node)
    return calls


def _engine_config_keywords(tree: ast.AST) -> list[str]:
    return [kw.arg for call in _engine_config_calls(tree)
            for kw in call.keywords if kw.arg]


def _expected_to_raise(tree: ast.AST) -> set[int]:
    """Ids of the calls inside a ``try`` that catches ``ConfigError`` — the
    examples that show a config being rejected."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                "ConfigError" in ast.unparse(h.type) for h in node.handlers
                if h.type is not None):
            ids |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    return ids


def _literal_engine_configs(tree: ast.AST) -> list[dict]:
    """The keyword dicts of the ``EngineConfig(...)`` calls that pass only
    literal keywords (anything else depends on the block's own names) and
    are not shown being rejected."""
    configs = []
    rejected = _expected_to_raise(tree)
    for call in _engine_config_calls(tree):
        if call.args or any(kw.arg is None for kw in call.keywords) \
                or id(call) in rejected:
            continue
        try:
            configs.append({kw.arg: ast.literal_eval(kw.value)
                            for kw in call.keywords})
        except ValueError:
            continue
    return configs


def _imported(module_name: str, name: str):
    """``from module_name import name``, or None when it would fail."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return None


def _unresolved_names(tree: ast.AST) -> list[str]:
    """Names a block imports from ``repro``, or reads off ``engine``, that
    do not exist. ``engine`` is whatever the block imports under that name
    (the engine module, in the examples that do), else a
    :class:`PegasusEngine`, the name the serving examples give one."""
    missing = []
    engine = PegasusEngine
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                target = _imported(node.module, alias.name)
                if target is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif (alias.asname or alias.name) == "engine":
                    engine = target
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "engine" \
                and not hasattr(engine, node.attr):
            missing.append(f"engine.{node.attr}")
    return missing


def test_every_doc_has_python_blocks():
    ids = [param.id for param in _python_blocks()]
    for doc in DOCS:
        assert any(i.startswith(f"{doc}#") for i in ids), doc


@pytest.mark.parametrize("source", _python_blocks())
def test_documented_engine_config_keywords_are_fields(source):
    tree = ast.parse(source)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    unknown = [k for k in _engine_config_keywords(tree) if k not in fields]
    assert unknown == []


@pytest.mark.parametrize("source", _python_blocks())
def test_documented_literal_configs_construct(source):
    for kwargs in _literal_engine_configs(ast.parse(source)):
        EngineConfig(**kwargs)      # a ConfigError names the stale value


@pytest.mark.parametrize("source", _python_blocks())
def test_documented_names_resolve(source):
    assert _unresolved_names(ast.parse(source)) == []


def undocumented_fields(config_cls, text: str) -> list[str]:
    """The fields of ``config_cls`` that ``text`` never names."""
    return [f.name for f in dataclasses.fields(config_cls)
            if not re.search(rf"\b{f.name}\b", text)]


def test_every_engine_config_field_is_documented():
    text = (ROOT / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
    assert undocumented_fields(EngineConfig, text) == []
