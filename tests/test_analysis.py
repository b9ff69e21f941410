"""Tests for ``repro.analysis`` — the static invariant wall.

Three layers, mirroring how the linter earns trust:

1. **Fixture tests** — every rule has at least one true-positive fixture
   AND one clean negative, so rules neither under- nor over-fire.
2. **Suppression mechanics** — ``# reprolint: disable=`` silences exactly
   the matched finding, multi-line spans work, and a suppression that
   silences nothing is itself reported.
3. **Mutation tests** — a synthetic violation per rule is injected into a
   temp copy of a *real* module and the CLI must exit nonzero naming the
   rule and the line; plus the repo-wide gate: the shipped tree is clean.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source, default_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.core import (UNUSED_SUPPRESSION, Finding, ImportTable,
                                 module_name_for)
from repro.analysis.drift import RegistryConfigDriftRule
from repro.analysis.style import check_style

import ast

REPO = Path(__file__).resolve().parent.parent

#: Default fixture identity: a decision-path module, not a test file.
DATAPLANE_PATH = Path("src/repro/dataplane/fake_module.py")
SERVING_PATH = Path("src/repro/serving/fake_module.py")


def lint(source: str, path: Path = DATAPLANE_PATH) -> list[Finding]:
    findings, _ = analyze_source(textwrap.dedent(source), path)
    return findings


def rule_names(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------------

class TestFramework:
    def test_finding_str_is_clickable(self):
        f = Finding("rng-discipline", "src/repro/x.py", 7, "boom")
        assert str(f) == "src/repro/x.py:7: [rng-discipline] boom"
        assert f.to_json() == {"rule": "rng-discipline",
                               "path": "src/repro/x.py", "line": 7,
                               "msg": "boom"}

    def test_module_name_resolves_from_last_repro_segment(self):
        assert module_name_for(Path("src/repro/dataplane/foo.py")) \
            == "repro.dataplane.foo"
        assert module_name_for(
            Path("/tmp/copy/src/repro/dataplane/foo.py")) \
            == "repro.dataplane.foo"
        assert module_name_for(Path("src/repro/serving/__init__.py")) \
            == "repro.serving"
        assert module_name_for(Path("scripts/run_bench.py")) is None

    def test_import_table_resolves_aliases(self):
        tree = ast.parse(textwrap.dedent("""
            import numpy as np
            import numpy.random as npr
            from time import perf_counter
        """))
        table = ImportTable(tree)
        assert table.resolve("np.random.shuffle") == "numpy.random.shuffle"
        assert table.resolve("npr.shuffle") == "numpy.random.shuffle"
        assert table.resolve("perf_counter") == "time.perf_counter"
        assert table.resolve("unrelated.name") == "unrelated.name"

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint("def broken(:\n    pass\n")
        assert rule_names(findings) == ["syntax-error"]


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

class TestRngDiscipline:
    def test_stdlib_random_flagged(self):
        findings = lint("""
            import random

            def sample(xs):
                random.shuffle(xs)
        """)
        assert rule_names(findings) == ["rng-discipline"]
        assert "random.shuffle" in findings[0].msg

    def test_numpy_global_state_flagged_through_alias(self):
        findings = lint("""
            import numpy as np

            def sample(xs):
                return np.random.permutation(xs)
        """)
        assert rule_names(findings) == ["rng-discipline"]

    def test_unseeded_default_rng_flagged_outside_tests(self):
        findings = lint("""
            import numpy as np

            def make():
                return np.random.default_rng()
        """)
        assert rule_names(findings) == ["rng-discipline"]
        assert "seed" in findings[0].msg

    def test_seeded_generators_and_test_files_clean(self):
        clean = """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)

            def draw(rng, xs):
                return rng.permutation(xs)
        """
        assert lint(clean) == []
        # Unseeded default_rng is allowed in test files.
        unseeded = """
            import numpy as np

            def anything():
                return np.random.default_rng()
        """
        assert lint(unseeded, path=Path("tests/test_fake.py")) == []


# ---------------------------------------------------------------------------
# no-wallclock-in-dataplane
# ---------------------------------------------------------------------------

class TestWallclock:
    def test_time_reads_flagged_in_dataplane(self):
        source = """
            import time
            from time import perf_counter

            def f():
                return time.time(), perf_counter()
        """
        findings = lint(source, path=DATAPLANE_PATH)
        assert rule_names(findings) == ["no-wallclock-in-dataplane"] * 2

    def test_datetime_now_flagged_in_core(self):
        findings = lint("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """, path=Path("src/repro/core/fake.py"))
        assert rule_names(findings) == ["no-wallclock-in-dataplane"]

    def test_serving_telemetry_and_sleep_clean(self):
        source = """
            import time

            def f():
                return time.perf_counter()
        """
        assert lint(source, path=SERVING_PATH) == []
        # Non-clock time functions are not wall-clock reads.
        assert lint("""
            import time

            def f():
                time.sleep(0.1)
        """, path=DATAPLANE_PATH) == []


# ---------------------------------------------------------------------------
# pickle-safe-registrations
# ---------------------------------------------------------------------------

class TestPickleSafeRegistrations:
    def test_lambda_entry_flagged(self):
        findings = lint("""
            from repro.serving.engine import register_topology

            register_topology("ring", lambda config: None)
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["pickle-safe-registrations"]
        assert "lambda" in findings[0].msg

    def test_nested_def_entry_flagged(self):
        findings = lint("""
            from repro.serving.engine import register_runtime_kind

            def install():
                def build(src, cfg):
                    return object()
                register_runtime_kind("sketch", build=build)
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["pickle-safe-registrations"]
        assert "build" in findings[0].msg

    def test_dispatcher_factory_kwarg_flagged(self):
        findings = lint("""
            from repro.serving.parallel import ParallelDispatcher

            def make(n):
                return ParallelDispatcher(
                    n, replica_factory=lambda i: object())
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["pickle-safe-registrations"]

    def test_module_level_callables_clean(self):
        assert lint("""
            from repro.serving.engine import register_topology

            class RingDriver:
                pass

            def build_ring(config):
                return RingDriver()

            register_topology("ring", build_ring)
        """, path=SERVING_PATH) == []

    def test_overwrite_and_name_kwargs_not_flagged(self):
        assert lint("""
            from repro.serving.engine import register_topology

            def build_ring(config):
                return object()

            register_topology(name="ring", overwrite=True)
        """, path=SERVING_PATH) == []


# ---------------------------------------------------------------------------
# thread-shared-state
# ---------------------------------------------------------------------------

class TestThreadSharedState:
    def test_unguarded_closure_pump_flagged_both_sides(self):
        findings = lint("""
            import threading

            def pump(items):
                out = []

                def worker():
                    for item in items:
                        out.append(item)

                t = threading.Thread(target=worker)
                t.start()
                snapshot = len(out)
                t.join()
                return snapshot
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["thread-shared-state"] * 2
        msgs = " | ".join(f.msg for f in findings)
        assert "'out'" in msgs

    def test_lock_guarded_closure_pump_clean(self):
        assert lint("""
            import threading

            def pump(items):
                out = []
                lock = threading.Lock()

                def worker():
                    for item in items:
                        with lock:
                            out.append(item)

                t = threading.Thread(target=worker)
                t.start()
                with lock:
                    snapshot = len(out)
                t.join()
                return snapshot
        """, path=SERVING_PATH) == []

    def test_sequential_windows_are_exempt(self):
        # Reads before the Thread exists / after join() cannot race; only
        # the unguarded *thread-side* write is a finding here.
        findings = lint("""
            import threading

            def pump(items):
                out = []
                before = len(out)

                def worker():
                    for item in items:
                        out.append(item)

                t = threading.Thread(target=worker)
                t.start()
                t.join()
                return before + len(out)
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["thread-shared-state"]
        assert "written by thread target" in findings[0].msg

    def test_queue_mediated_pump_clean(self):
        assert lint("""
            import queue
            import threading

            def pump(items):
                q = queue.Queue()

                def worker():
                    for item in items:
                        q.put(item)

                t = threading.Thread(target=worker)
                t.start()
                got = [q.get() for _ in items]
                t.join()
                return got
        """, path=SERVING_PATH) == []

    def test_lambda_thread_target_flagged(self):
        findings = lint("""
            import threading

            def pump(out):
                t = threading.Thread(target=lambda: out.append(1))
                t.start()
                return t
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["thread-shared-state"]
        assert "lambda thread target" in findings[0].msg

    def test_unguarded_method_pump_flagged(self):
        findings = lint("""
            import threading

            class Pump:
                def __init__(self):
                    self.done = []
                    self.thread = threading.Thread(target=self._run)

                def _run(self):
                    self.done.append(1)

                def results(self):
                    return list(self.done)
        """, path=SERVING_PATH)
        assert rule_names(findings) == ["thread-shared-state"] * 2
        msgs = " | ".join(f.msg for f in findings)
        assert "self.done" in msgs

    def test_lock_guarded_method_pump_clean(self):
        assert lint("""
            import threading

            class Pump:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.done = []
                    self.thread = threading.Thread(target=self._run)

                def _run(self):
                    with self.lock:
                        self.done.append(1)

                def results(self):
                    with self.lock:
                        return list(self.done)
        """, path=SERVING_PATH) == []


# ---------------------------------------------------------------------------
# mutable-default-args / bare-except
# ---------------------------------------------------------------------------

class TestGenericDefectRules:
    def test_mutable_defaults_flagged(self):
        findings = lint("""
            def f(xs, acc=[]):
                return acc

            def g(xs, *, acc=dict()):
                return acc
        """)
        assert rule_names(findings) == ["mutable-default-args"] * 2

    def test_immutable_defaults_clean(self):
        assert lint("""
            def f(xs, acc=None, n=3, mode="stats", shape=(2, 2)):
                if acc is None:
                    acc = []
                return acc
        """) == []

    def test_bare_except_flagged(self):
        findings = lint("""
            def f(fn):
                try:
                    return fn()
                except:
                    return None
        """)
        assert rule_names(findings) == ["bare-except"]

    def test_named_except_clean(self):
        assert lint("""
            def f(fn):
                try:
                    return fn()
                except (ValueError, KeyError):
                    return None
        """) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_suppression_silences_the_matched_rule(self):
        assert lint("""
            import random

            def sample(xs):
                random.shuffle(xs)   # reprolint: disable=rng-discipline
        """) == []

    def test_suppression_on_closing_line_of_multiline_statement(self):
        assert lint("""
            import random

            def sample(xs, ys):
                random.sample(
                    xs,
                    len(ys),
                )   # reprolint: disable=rng-discipline
        """) == []

    def test_suppressing_the_wrong_rule_keeps_finding_and_reports_unused(self):
        findings = lint("""
            import random

            def sample(xs):
                random.shuffle(xs)   # reprolint: disable=bare-except
        """)
        assert sorted(rule_names(findings)) == ["rng-discipline",
                                                UNUSED_SUPPRESSION]

    def test_unused_suppression_reported_at_its_line(self):
        findings = lint("""
            def fine():
                return 1   # reprolint: disable=rng-discipline
        """)
        assert rule_names(findings) == [UNUSED_SUPPRESSION]
        assert findings[0].line == 3

    def test_disable_all_wildcard(self):
        assert lint("""
            import random

            def sample(xs):
                random.shuffle(xs)   # reprolint: disable=all
        """) == []


# ---------------------------------------------------------------------------
# registry-config-drift (project rule; needs a tree with mirrors)
# ---------------------------------------------------------------------------

def _copy_drift_tree(tmp_path: Path) -> Path:
    """A minimal temp repo: engine.py + both drift mirrors."""
    engine_dir = tmp_path / "src" / "repro" / "serving"
    engine_dir.mkdir(parents=True)
    shutil.copy(REPO / "src/repro/serving/engine.py", engine_dir)
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO / "tests/test_serving_engine.py", tmp_path / "tests")
    (tmp_path / "docs").mkdir()
    shutil.copy(REPO / "docs/ARCHITECTURE.md", tmp_path / "docs")
    return tmp_path


class TestRegistryConfigDrift:
    def test_shipped_engine_is_drift_free(self, tmp_path):
        root = _copy_drift_tree(tmp_path)
        findings = analyze_paths([root / "src"],
                                 rules=[RegistryConfigDriftRule()])
        assert findings == []

    def test_new_field_without_mirrors_flagged_twice(self, tmp_path):
        root = _copy_drift_tree(tmp_path)
        engine = root / "src/repro/serving/engine.py"
        text = engine.read_text(encoding="utf-8")
        anchor = "    time_scale: float = 0.0\n"
        assert anchor in text
        engine.write_text(text.replace(
            anchor, anchor + "    extra_knob: int = 0\n"),
            encoding="utf-8")
        findings = analyze_paths([root / "src"],
                                 rules=[RegistryConfigDriftRule()])
        assert rule_names(findings) == ["registry-config-drift"] * 2
        msgs = " | ".join(f.msg for f in findings)
        assert "typed-validation table" in msgs
        assert "ARCHITECTURE.md" in msgs
        expected_line = engine.read_text(encoding="utf-8").splitlines() \
            .index("    extra_knob: int = 0") + 1
        assert {f.line for f in findings} == {expected_line}

    def test_missing_validation_table_is_itself_a_finding(self, tmp_path):
        root = _copy_drift_tree(tmp_path)
        (root / "tests/test_serving_engine.py").unlink()
        findings = analyze_paths([root / "src"],
                                 rules=[RegistryConfigDriftRule()])
        assert rule_names(findings) == ["registry-config-drift"]
        assert "missing or unparsable" in findings[0].msg


# ---------------------------------------------------------------------------
# Style gate
# ---------------------------------------------------------------------------

class TestStyleGate:
    def test_long_line_flagged_and_suppressible(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n" + "y = " + "'a' + " * 30 + "'a'\n",
                        encoding="utf-8")
        findings = check_style([path])
        assert rule_names(findings) == ["line-too-long"]
        assert findings[0].line == 2
        path.write_text(
            "x = 1\n" + "y = " + "'a' + " * 30
            + "'a'  # reprolint: disable=line-too-long\n", encoding="utf-8")
        assert check_style([path]) == []

    def test_clean_file_passes(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert check_style([path]) == []


# ---------------------------------------------------------------------------
# The repo-wide gate + CLI mutation tests
# ---------------------------------------------------------------------------

class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        findings = analyze_paths([REPO / "src", REPO / "scripts",
                                  REPO / "benchmarks"])
        assert findings == [], "\n".join(str(f) for f in findings)


#: (rule, real module to copy, violation snippet, the violating line's
#: exact text). Each mutation is injected at the end of a temp copy of the
#: module and the CLI must exit 1 naming rule + line.
MUTATIONS = [
    ("rng-discipline", "src/repro/utils/rng.py", """

import random


def _mutant(xs):
    random.shuffle(xs)
""", "    random.shuffle(xs)"),
    ("no-wallclock-in-dataplane", "src/repro/dataplane/throughput.py", """

def _mutant():
    return time.time()
""", "    return time.time()"),
    ("pickle-safe-registrations", "src/repro/serving/engine.py", """

register_topology("mutant", lambda config: None, overwrite=True)
""", 'register_topology("mutant", lambda config: None, overwrite=True)'),
    ("thread-shared-state", "src/repro/serving/openloop.py", """

def _mutant(items):
    out = []

    def _worker():
        for item in items:
            out.append(item)

    t = threading.Thread(target=_worker)
    t.start()
    n = len(out)
    t.join()
    return n
""", "            out.append(item)"),
    ("mutable-default-args", "src/repro/utils/rng.py", """

def _mutant(xs, acc=[]):
    acc.extend(xs)
    return acc
""", "def _mutant(xs, acc=[]):"),
    ("bare-except", "src/repro/utils/rng.py", """

def _mutant(fn):
    try:
        return fn()
    except:
        return None
""", "    except:"),
]


class TestCliMutations:
    @pytest.mark.parametrize("rule,module,snippet,needle", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_injected_violation_fails_the_gate(self, tmp_path, capsys,
                                               rule, module, snippet, needle):
        src = REPO / module
        dest = tmp_path / module
        dest.parent.mkdir(parents=True)
        mutated = src.read_text(encoding="utf-8") + snippet
        dest.write_text(mutated, encoding="utf-8")
        expected_line = mutated.splitlines().index(needle) + 1

        rc = cli_main(["--select", rule, str(dest)])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"[{rule}]" in out
        assert f":{expected_line}:" in out

    @pytest.mark.parametrize("rule,module,snippet,needle", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_unmutated_copy_passes_the_gate(self, tmp_path, capsys,
                                            rule, module, snippet, needle):
        src = REPO / module
        dest = tmp_path / module
        dest.parent.mkdir(parents=True)
        shutil.copy(src, dest)
        rc = cli_main(["--select", rule, str(dest)])
        assert rc == 0

    def test_drift_mutation_fails_the_gate(self, tmp_path, capsys):
        root = _copy_drift_tree(tmp_path)
        engine = root / "src/repro/serving/engine.py"
        text = engine.read_text(encoding="utf-8")
        anchor = "    time_scale: float = 0.0\n"
        engine.write_text(text.replace(
            anchor, anchor + "    extra_knob: int = 0\n"),
            encoding="utf-8")
        rc = cli_main(["--select", "registry-config-drift",
                       str(root / "src")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[registry-config-drift]" in out
        assert "extra_knob" in out


class TestCli:
    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.name in out
        assert UNUSED_SUPPRESSION in out

    def test_unknown_select_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            cli_main(["--select", "no-such-rule", "src"])

    def test_json_report_and_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.shuffle([1])\n",
                       encoding="utf-8")
        artifact = tmp_path / "findings.json"
        rc = cli_main(["--json", "--json-out", str(artifact), str(bad)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["n_findings"] == 1
        assert report["findings"][0]["rule"] == "rng-discipline"
        assert json.loads(artifact.read_text(encoding="utf-8")) == report

    def test_style_flag_folds_in_the_style_gate(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("z = " + "1 + " * 40 + "1\n", encoding="utf-8")
        rc = cli_main(["--style", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[line-too-long]" in out
