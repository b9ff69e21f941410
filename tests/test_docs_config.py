"""The documented configuration stays real.

Every ```` ```python ```` block in the README and the architecture doc must
parse, and every keyword it passes to ``EngineConfig(...)`` must be an
``EngineConfig`` field — so deleting or renaming a field cannot leave a
documented example that no longer runs.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.serving import EngineConfig

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/ARCHITECTURE.md")
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _python_blocks():
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for i, match in enumerate(_BLOCK.finditer(text)):
            yield pytest.param(match.group(1), id=f"{doc}#{i}")


def _engine_config_keywords(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if called == "EngineConfig":
                names += [kw.arg for kw in node.keywords if kw.arg]
    return names


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
