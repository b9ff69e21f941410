"""The scalar oracle shares no code with the served path.

``repro.eval.oracle`` is the reference every served configuration is checked
against, so a defect in code it shared with the served path would pass
unseen. These tests parse its imports: the standard library, NumPy (to call
a two-stage ``feature_fn``), ``repro.errors``, ``PacketDecision`` and named
constants are allowed; the runtimes, the registers, the compiler core, the
feature extractors and the trace key packing are not. The replay tests
compare it with the runtimes; the model test here reaches exact tables and
out-of-domain keys, which no runtime's bucket features produce.
"""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import CompilerConfig, PegasusCompiler
from repro.eval.oracle import _Model

ORACLE = Path(__file__).resolve().parents[1] / "src" / "repro" / "eval" / "oracle.py"
FORBIDDEN = ("repro.dataplane.runtime", "repro.dataplane.registers",
             "repro.core", "repro.net.features")
ALLOWED_NAMES = {"repro.dataplane.decisions": {"PacketDecision"}}
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def _violations(source: str) -> list[str]:
    """Each import of ``source`` the oracle may not make."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "numpy":
                    bad.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            top = module.split(".")[0]
            if top in sys.stdlib_module_names or module == "repro.errors":
                continue
            forbidden = any(module == f or module.startswith(f + ".")
                            for f in FORBIDDEN)
            allowed = names <= ALLOWED_NAMES.get(module, set()) or all(
                CONSTANT.match(name) for name in names)
            if forbidden or top != "repro" or not allowed:
                bad.append(f"from {module} import {', '.join(sorted(names))}")
    return bad


def test_oracle_imports_nothing_the_served_path_runs():
    assert _violations(ORACLE.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("line", [
    "from repro.dataplane.runtime import TS_MASK",
    "from repro.dataplane.registers import VectorFlowState",
    "from repro.core.mapping import CompiledModel",
    "from repro.core import fuzzy",
    "from repro.net.features import ipd_bucket",
    "from repro.net.traces import flow_ids",
    "from repro.net.traces import TS_UNIT_SECONDS, pack_flow_keys",
    "from repro.dataplane.decisions import DecisionBatch",
    "import repro.dataplane.runtime",
    "from .runtime import TS_MASK",
])
def test_forbidden_imports_are_caught(line):
    """The check has teeth: each of these imports is reported."""
    assert len(_violations(line)) == 1


def test_allowed_imports_pass():
    assert _violations("\n".join([
        "from __future__ import annotations",
        "import math",
        "import numpy as np",
        "from repro.errors import ConfigError",
        "from repro.dataplane.decisions import PacketDecision",
        "from repro.net.traces import TS_UNIT_SECONDS",
    ])) == []


def test_model_walk_matches_compiled_predict():
    """Exact tables (clipped keys), a fuzzy tree fed by activations and a
    saturating SumReduce: the oracle's walk decides as ``predict``."""
    rng = np.random.default_rng(0)
    net = nn.Sequential(nn.Linear(16, 8, rng=0), nn.ReLU(), nn.Linear(8, 3, rng=1))
    net.eval_mode()
    calib = rng.integers(0, 256, size=(400, 16))
    model = PegasusCompiler(CompilerConfig(refine=False, input_segment_dim=1)) \
        .compile_sequential(net, calib).compiled
    assert {t.kind for t in model.layers[0].tables} == {"exact"}
    for layer in model.layers:          # values that vary the decision
        for table in layer.tables:
            table.set_values(rng.integers(-40, 40, size=table.values_int.shape))
    rows = rng.integers(-60, 320, size=(600, 16))
    want = model.predict(rows)
    assert len(set(want.tolist())) == 3
    oracle = _Model(model)
    assert [oracle.decide(row) for row in rows.tolist()] == want.tolist()
