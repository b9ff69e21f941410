"""The repo-specific invariant rules (see also threads.py / drift.py).

Each rule encodes a contract the dynamic test wall already assumes:

- ``rng-discipline`` — all randomness flows through explicit, seeded
  ``numpy.random.Generator`` streams (``repro.utils.rng.spawn_rngs`` /
  ``new_rng``); global-state RNG calls make replay order-dependent.
- ``no-wallclock-in-dataplane`` — decision paths (``repro.dataplane``,
  ``repro.core``, ``repro.net.scenarios``) must be pure functions of the
  trace; wall-clock reads belong to serving telemetry.
- ``pickle-safe-registrations`` — engine registries and dispatcher
  factories cross process boundaries under the spawn start method, so
  lambdas / nested defs handed to them fail at the worst possible time.
- ``mutable-default-args`` / ``bare-except`` — the two generic Python
  defect classes that have bitten decision-path code before review.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, dotted_name

# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

#: numpy.random attributes that are explicit-stream constructors, not
#: global-state conveniences.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "RandomState",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


class RngDisciplineRule(Rule):
    name = "rng-discipline"
    description = ("randomness must flow through explicit seeded Generators "
                   "(repro.utils.rng.spawn_rngs / new_rng); no global-state "
                   "random.* / np.random.* calls, no unseeded default_rng() "
                   "outside tests")
    example = ("src/repro/net/scenarios.py:42: [rng-discipline] "
               "np.random.poisson() uses hidden global RNG state; thread a "
               "seeded Generator through instead")

    def visitors(self):
        return {"Call": self.check_call}

    def check_call(self, ctx: FileContext, node: ast.Call) -> None:
        target = ctx.resolve_call(node)
        if target is None:
            return
        if target.startswith("random."):
            ctx.report(node, self.name,
                       f"global-state stdlib RNG call '{target}'; draw from "
                       f"an explicit np.random.Generator (see "
                       f"repro.utils.rng.spawn_rngs) so replay order cannot "
                       f"change results")
            return
        if target.startswith("numpy.random."):
            attr = target.split(".")[2]
            if attr == "default_rng":
                if not node.args and not node.keywords and not ctx.is_test:
                    ctx.report(node, self.name,
                               "default_rng() without an explicit seed is "
                               "OS-entropy seeded; pass a seed or a "
                               "spawn_rngs child so runs reproduce")
            elif attr not in _NP_RANDOM_OK:
                ctx.report(node, self.name,
                           f"np.random global-state call '{target}'; use an "
                           f"explicit Generator (spawn_rngs / new_rng) "
                           f"instead of the shared legacy state")


# ---------------------------------------------------------------------------
# no-wallclock-in-dataplane
# ---------------------------------------------------------------------------

_WALLCLOCK_BANNED_PREFIXES = ("repro.dataplane", "repro.core",
                              "repro.net.scenarios")
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})


class WallclockRule(Rule):
    name = "no-wallclock-in-dataplane"
    description = ("decision paths (repro.dataplane / repro.core / "
                   "repro.net.scenarios) must be pure functions of the "
                   "trace; wall-clock reads live in repro.serving telemetry "
                   "(openloop / scheduler / dispatchers)")
    example = ("src/repro/dataplane/runtime.py:118: "
               "[no-wallclock-in-dataplane] time.time() read inside a "
               "decision path; derive timing from the trace ts column")

    def visitors(self):
        return {"Call": self.check_call}

    def check_call(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.module is None or \
                not ctx.module.startswith(_WALLCLOCK_BANNED_PREFIXES):
            return
        target = ctx.resolve_call(node)
        if target in _WALLCLOCK_CALLS:
            ctx.report(node, self.name,
                       f"wall-clock read '{target}' in decision-path module "
                       f"{ctx.module}; decisions must depend only on trace "
                       f"timestamps — move measurement to repro.serving "
                       f"telemetry or suppress with a documented exemption")


# ---------------------------------------------------------------------------
# pickle-safe-registrations
# ---------------------------------------------------------------------------

_REGISTER_FNS = frozenset({
    "register_runtime_kind", "register_lookup_backend", "register_topology",
    "register_admission_policy", "register_scenario",
})
_FACTORY_KWARGS = frozenset({"runtime_factory", "replica_factory"})


class PickleSafeRegistrationsRule(Rule):
    name = "pickle-safe-registrations"
    description = ("engine registry entries and dispatcher factories must be "
                   "module-level (picklable) callables — the spawn topology "
                   "ships them to worker processes; lambdas and nested defs "
                   "break there")
    example = ("src/repro/serving/engine.py:212: "
               "[pickle-safe-registrations] lambda registered as a "
               "dispatcher factory cannot cross the spawn boundary; use a "
               "module-level def")

    def begin_file(self, ctx: FileContext) -> None:
        # Names defined at module level vs. nested inside a function; a
        # name seen both ways counts as module-level (conservative).
        module_defs: set[str] = set()
        nested_defs: set[str] = set()

        def scan(node: ast.AST, depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    (module_defs if depth == 0 else nested_defs).add(
                        child.name)
                    # Class bodies at module level stay "module level" for
                    # methods' own nested defs? No: anything under a def is
                    # nested; anything under a module-level class is still
                    # importable only via the class, so treat class bodies
                    # as opaque (skip descending for def-kind tracking).
                    if isinstance(child, ast.ClassDef):
                        continue
                    scan(child, depth + 1)
                else:
                    scan(child, depth)

        scan(ctx.tree, 0)
        self._nested_only = nested_defs - module_defs

    def visitors(self):
        return {"Call": self.check_call}

    def _flag_value(self, ctx: FileContext, value: ast.AST, where: str
                    ) -> None:
        if isinstance(value, ast.Lambda):
            ctx.report(value, self.name,
                       f"lambda passed to {where}: lambdas do not pickle, so "
                       f"this entry breaks under the spawn start method — "
                       f"define a module-level function/class instead")
        elif isinstance(value, ast.Name) and value.id in self._nested_only:
            ctx.report(value, self.name,
                       f"locally-defined callable '{value.id}' passed to "
                       f"{where}: nested defs do not pickle, so this entry "
                       f"breaks under the spawn start method — hoist it to "
                       f"module level")

    def check_call(self, ctx: FileContext, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        fn = dotted.split(".")[-1] if dotted else None
        if fn in _REGISTER_FNS:
            for arg in node.args[1:]:       # args[0] is the registry name
                self._flag_value(ctx, arg, f"{fn}()")
            for kw in node.keywords:
                if kw.arg not in (None, "name", "overwrite"):
                    self._flag_value(ctx, kw.value, f"{fn}()")
        for kw in node.keywords:
            if kw.arg in _FACTORY_KWARGS:
                self._flag_value(ctx, kw.value,
                                 f"a dispatcher '{kw.arg}=' factory")


# ---------------------------------------------------------------------------
# mutable-default-args / bare-except
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray", "deque",
                            "defaultdict", "Counter", "OrderedDict"})


class MutableDefaultArgsRule(Rule):
    name = "mutable-default-args"
    description = ("mutable default argument values are shared across calls "
                   "— per-replica state leaking through one is exactly the "
                   "cross-flow contamination the differential wall hunts")
    example = ("src/repro/core/cache.py:31: [mutable-default-args] default "
               "value [] is shared across calls; default to None and "
               "allocate inside")

    def visitors(self):
        return {"FunctionDef": self.check_def,
                "AsyncFunctionDef": self.check_def,
                "Lambda": self.check_def}

    def check_def(self, ctx: FileContext, node) -> None:
        args = node.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                ctx.report(default, self.name,
                           "mutable default argument value; default to None "
                           "and construct inside the function")
            elif isinstance(default, ast.Call):
                dotted = dotted_name(default.func)
                if dotted and dotted.split(".")[-1] in _MUTABLE_CTORS:
                    ctx.report(default, self.name,
                               f"mutable default argument "
                               f"'{dotted}(...)'; default to None and "
                               f"construct inside the function")


class BareExceptRule(Rule):
    name = "bare-except"
    description = ("'except:' swallows SystemExit/KeyboardInterrupt and every "
                   "invariant violation with them; name the exceptions (or "
                   "'except Exception' with a re-raise path)")
    example = ("scripts/check_bench_regression.py:58: [bare-except] bare "
               "'except:' clause; catch named exception types so invariant "
               "violations cannot vanish silently")

    def visitors(self):
        return {"ExceptHandler": self.check_handler}

    def check_handler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            ctx.report(node, self.name,
                       "bare 'except:' clause; catch named exception types "
                       "so invariant violations cannot vanish silently")


def default_rules() -> list[Rule]:
    """One fresh instance of every shipped rule (order = report order)."""
    from repro.analysis.drift import RegistryConfigDriftRule
    from repro.analysis.threads import ThreadSharedStateRule
    from repro.analysis.wire import (ColumnarSchemaRule, DtypePromotionRule,
                                     HiddenCopyRule)
    return [
        RngDisciplineRule(),
        WallclockRule(),
        PickleSafeRegistrationsRule(),
        ThreadSharedStateRule(),
        RegistryConfigDriftRule(),
        MutableDefaultArgsRule(),
        BareExceptRule(),
        ColumnarSchemaRule(),
        HiddenCopyRule(),
        DtypePromotionRule(),
    ]
