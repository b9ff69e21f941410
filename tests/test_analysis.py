"""Fixture and mutation tests for the source-invariant checks.

``test_invariants.py`` runs four checks over the shipped tree and
``test_serving_engine.py`` / ``test_docs_config.py`` guard ``EngineConfig``
drift. A clean tree only shows that nothing fires today; these tests show
each check fires on the defect it exists for (a fixture snippet, or a
violation appended to a real module), stays quiet on the clean variant, and
names the offending line.
"""

import dataclasses
import re
import textwrap

import pytest

import test_docs_config as docs_tests
import test_serving_engine as engine_tests
from repro.serving import EngineConfig
from test_invariants import (CLOCK_ALLOWED, FILES, LINE_LENGTH, ROOT,
                             clock_reads, long_lines, mutable_defaults,
                             rng_violations)

DATAPLANE = "src/repro/dataplane/fake_module.py"
SERVING = "src/repro/serving/fake_module.py"


def clock_violations(rel: str, text: str | None = None) -> list[str]:
    """``path:line: callee()`` for each clock read beyond ``CLOCK_ALLOWED``."""
    return [f"{rel}:{line}: {name}()"
            for name, lines in clock_reads(rel, text).items()
            if len(lines) != CLOCK_ALLOWED.get((rel, name), 0)
            for line in lines]


def source(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


@dataclasses.dataclass(frozen=True)
class ExtraKnobConfig(EngineConfig):
    """``EngineConfig`` with one new field and neither of its mirrors."""

    extra_knob: int = 0


class TestFramework:
    def test_finding_str_is_clickable(self):
        bad = source("""
            import random
            random.shuffle([1])
        """)
        assert rng_violations("src/repro/x.py", bad) \
            == ["src/repro/x.py:2: random.shuffle()"]

    def test_import_table_resolves_aliases(self):
        bad = source("""
            import numpy as np
            import numpy.random as npr
            from time import perf_counter as clock
            np.random.shuffle([1])
            npr.shuffle([1])
            clock()
        """)
        assert rng_violations(DATAPLANE, bad) == [
            f"{DATAPLANE}:4: numpy.random.shuffle()",
            f"{DATAPLANE}:5: numpy.random.shuffle()"]
        assert clock_reads(DATAPLANE, bad) == {"time.perf_counter": [6]}

    def test_syntax_error_is_a_finding_not_a_crash(self):
        with pytest.raises(SyntaxError) as exc:
            mutable_defaults(DATAPLANE, "def broken(:\n    pass\n")
        assert (exc.value.filename, exc.value.lineno) == (DATAPLANE, 1)


class TestRngDiscipline:
    def test_stdlib_random_flagged(self):
        assert rng_violations(DATAPLANE, source("""
            import random

            def sample(xs):
                random.shuffle(xs)
        """)) == [f"{DATAPLANE}:4: random.shuffle()"]

    def test_numpy_global_state_flagged_through_alias(self):
        assert rng_violations(DATAPLANE, source("""
            import numpy as np

            def sample(xs):
                return np.random.permutation(xs)
        """)) == [f"{DATAPLANE}:4: numpy.random.permutation()"]

    def test_unseeded_default_rng_flagged_outside_tests(self):
        unseeded = source("""
            import numpy as np

            def make():
                return np.random.default_rng()
        """)
        assert rng_violations(DATAPLANE, unseeded) \
            == [f"{DATAPLANE}:4: numpy.random.default_rng()"]
        assert rng_violations("examples/fake.py", unseeded) != []
        assert rng_violations("tests/test_fake.py", unseeded) != []

    def test_seeded_generators_and_test_files_clean(self):
        assert rng_violations(DATAPLANE, source("""
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)

            def draw(rng, xs):
                return rng.permutation(xs)
        """)) == []
        # The walk covers the tests and the benchmark harness too: they
        # draw only seeded streams, like the code they drive.
        assert {rel.split("/")[0] for rel in FILES} >= {"perf", "tests"}


class TestWallclock:
    def test_time_reads_flagged_in_dataplane(self):
        assert clock_reads(DATAPLANE, source("""
            import time
            from time import perf_counter

            def f():
                return time.time(), perf_counter()
        """)) == {"time.time": [5], "time.perf_counter": [5]}

    def test_datetime_now_flagged_in_core(self):
        assert clock_reads("src/repro/core/fake.py", source("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)) == {"datetime.datetime.now": [4]}

    def test_serving_telemetry_and_sleep_clean(self):
        assert clock_reads(SERVING, source("""
            import time

            def f():
                return time.perf_counter()
        """)) == {}
        # Non-clock time functions are not clock reads.
        assert clock_reads(DATAPLANE, source("""
            import time

            def f():
                time.sleep(0.1)
        """)) == {}


class TestGenericDefectRules:
    def test_mutable_defaults_flagged(self):
        assert mutable_defaults(DATAPLANE, source("""
            def f(xs, acc=[]):
                return acc

            def g(xs, *, acc=dict()):
                return acc

            h = lambda seen=set(): seen
        """)) == [f"{DATAPLANE}:1", f"{DATAPLANE}:4", f"{DATAPLANE}:7"]

    def test_immutable_defaults_clean(self):
        assert mutable_defaults(DATAPLANE, source("""
            def f(xs, acc=None, n=3, mode="stats", shape=(2, 2)):
                if acc is None:
                    acc = []
                return acc
        """)) == []


class TestRegistryConfigDrift:
    def test_shipped_engine_is_drift_free(self):
        text = (ROOT / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
        assert engine_tests.fields_without_invalid_row(
            EngineConfig, engine_tests.INVALID_CONFIGS) == []
        assert docs_tests.undocumented_fields(EngineConfig, text) == []

    def test_new_field_without_mirrors_flagged_twice(self):
        text = (ROOT / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
        assert engine_tests.fields_without_invalid_row(
            ExtraKnobConfig, engine_tests.INVALID_CONFIGS) == ["extra_knob"]
        assert docs_tests.undocumented_fields(ExtraKnobConfig, text) \
            == ["extra_knob"]

    def test_missing_validation_table_is_itself_a_finding(self):
        fields = [f.name for f in dataclasses.fields(EngineConfig)]
        assert engine_tests.fields_without_invalid_row(EngineConfig, []) \
            == sorted(fields)
        assert docs_tests.undocumented_fields(EngineConfig, "") == fields


class TestStyleGate:
    def test_long_line_flagged_and_suppressible(self):
        long = "x = 1\n" + "y = " + "'a' + " * 30 + "'a'\n"
        assert long_lines("mod.py", long) == ["mod.py:2"]
        # No comment silences the gate; rewrapping the line does.
        assert long_lines("mod.py", long.replace("\n", "  # noqa: E501\n")) \
            == ["mod.py:2"]
        assert long_lines("mod.py", "x = 1\ny = (\n" + "    'a' +\n" * 30
                          + "    'a')\n") == []

    def test_clean_file_passes(self):
        assert long_lines("mod.py", "x = 1\n") == []


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        checks = (rng_violations, clock_violations, mutable_defaults,
                  long_lines)
        assert [bad for rel in FILES for check in checks
                for bad in check(rel)] == []


#: (check, real module, violation snippet, the violating line's exact text).
#: Each snippet is appended to the module's text; the check must then name
#: that line, and must pass the module as shipped.
MUTATIONS = [
    ("rng-discipline", rng_violations, "src/repro/utils/rng.py", """
import random
def _mutant(xs):
    random.shuffle(xs)
""", "    random.shuffle(xs)"),
    ("no-wallclock-in-dataplane", clock_violations,
     "src/repro/dataplane/throughput.py", """
def _mutant():
    return time.time()
""", "    return time.time()"),
    ("mutable-default-args", mutable_defaults, "src/repro/utils/rng.py", """
def _mutant(xs, acc=[]):
    acc.extend(xs)
    return acc
""", "def _mutant(xs, acc=[]):"),
]
MUTATION_IDS = [m[0] for m in MUTATIONS]


class TestCliMutations:
    @pytest.mark.parametrize("rule,check,module,snippet,needle", MUTATIONS,
                             ids=MUTATION_IDS)
    def test_injected_violation_fails_the_gate(self, rule, check, module,
                                               snippet, needle):
        mutated = (ROOT / module).read_text(encoding="utf-8") + snippet
        line = mutated.splitlines().index(needle) + 1
        assert [bad.split(": ")[0] for bad in check(module, mutated)] \
            == [f"{module}:{line}"]

    @pytest.mark.parametrize("rule,check,module,snippet,needle", MUTATIONS,
                             ids=MUTATION_IDS)
    def test_unmutated_copy_passes_the_gate(self, rule, check, module,
                                            snippet, needle):
        assert check(module, (ROOT / module).read_text(encoding="utf-8")) \
            == []

    def test_drift_mutation_fails_the_gate(self, monkeypatch):
        for tests in (engine_tests, docs_tests):
            monkeypatch.setattr(tests, "EngineConfig", ExtraKnobConfig)
        gates = (engine_tests.TestEngineConfig()
                 .test_every_field_has_an_invalid_row,
                 docs_tests.test_every_engine_config_field_is_documented)
        for gate in gates:
            with pytest.raises(AssertionError, match="extra_knob"):
                gate()


class TestCli:
    def test_style_flag_folds_in_the_style_gate(self):
        ruff = re.search(r"^\[tool\.ruff\]\n(?:[^\[].*\n)*?line-length = "
                         r"(\d+)$", (ROOT / "pyproject.toml").read_text(
                             encoding="utf-8"), re.MULTILINE)
        assert LINE_LENGTH == int(ruff[1])
        line = "z = " + "1 + " * (LINE_LENGTH // 4) + "1"
        assert len(line) > LINE_LENGTH
        assert long_lines("mod.py", line + "\n") == ["mod.py:1"]
        assert long_lines("mod.py", line[:LINE_LENGTH + 1] + "\n") \
            == ["mod.py:1"]
        assert long_lines("mod.py", line[:LINE_LENGTH] + "\n") == []
