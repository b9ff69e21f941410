"""``thread-shared-state``: producer/consumer shared state must be guarded.

The contract of any thread-pumped component (the shape
:class:`repro.serving.openloop.OpenLoopPump` had while it ran a producer
thread) is that state written from the spawned
thread and touched by the spawning side is either **lock-guarded** (both
sides access it under the same ``threading.Lock``) or **mediated by a
thread-safe object** (``queue.Queue``, ``threading.Event``, the locks
themselves).

Detection is reachability-based, from the ``threading.Thread(target=...)``
call site:

- ``target=self.method`` — the thread body is the set of methods reachable
  from ``method`` through ``self.x()`` calls; shared state is every
  ``self.attr`` those methods write that any *other* method of the class
  touches. Guarded means inside ``with self.<lock>:`` where ``<lock>`` is
  an attribute assigned ``threading.Lock()`` / ``RLock()`` (or whose name
  contains ``lock``).
- ``target=local_function`` (closure pump) — the
  thread body is the nested def; shared state is every enclosing-scope name
  it mutates (nonlocal rebinding, subscript/attribute stores, or mutating
  method calls such as ``.append``). Guarded means inside ``with <lock>:``
  for a local assigned ``threading.Lock()``. Consumer-side accesses that
  are lexically **before the thread is constructed** or **after
  ``<thread>.join()``** are sequential, not concurrent, and are exempt;
  accesses inside *other* nested helpers get no such exemption because
  their call time is unknowable statically.

The rule is deliberately conservative: publication ordering it cannot see
(e.g. an index handed over through a lock-guarded queue, then used to read
a side array without the lock) is a legitimate, *documented* suppression
(``reprolint: disable=thread-shared-state`` in a comment at the access).
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, dotted_name

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "remove", "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "sort", "reverse", "__setitem__",
})

_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})
_SAFE_CTORS = frozenset({
    "threading.Event", "threading.Condition", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier", "threading.Lock",
    "threading.RLock", "queue.Queue", "queue.LifoQueue",
    "queue.PriorityQueue", "queue.SimpleQueue",
})


def _root_name(node: ast.AST) -> str | None:
    """The base Name of a Name/Attribute/Subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _assigned_names(node: ast.AST, ctors: frozenset[str],
                    imports) -> set[str]:
    """Local names assigned a call to one of ``ctors`` anywhere in node."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
            dotted = dotted_name(sub.value.func)
            if dotted and imports.resolve(dotted) in ctors:
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
    return out


def _local_names(func: ast.AST) -> set[str]:
    """Names bound locally in ``func`` (params, stores, loop/with targets),
    minus names it declares nonlocal/global."""
    local: set[str] = set()
    escaping: set[str] = set()
    args = func.args
    for a in (list(args.posonlyargs) + list(args.args)
              + list(args.kwonlyargs)
              + ([args.vararg] if args.vararg else [])
              + ([args.kwarg] if args.kwarg else [])):
        local.add(a.arg)
    for sub in ast.walk(func):
        if isinstance(sub, (ast.Nonlocal, ast.Global)):
            escaping.update(sub.names)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            local.add(sub.id)
    return local - escaping


class _Access:
    __slots__ = ("name", "node", "locked", "nested")

    def __init__(self, name: str, node: ast.AST, locked: bool, nested: bool):
        self.name = name
        self.node = node
        self.locked = locked
        self.nested = nested


def _collect_accesses(body: ast.AST, names_of_interest, lock_names: set[str],
                      *, skip: ast.AST | None = None,
                      mutations_only: bool = False) -> list[_Access]:
    """Every access to a name of interest, with lock/nesting context.

    ``names_of_interest`` is a set, or None for "any name" (used on the
    thread side where the interest set is being discovered). With
    ``mutations_only`` reads are ignored; otherwise every Name touch
    counts. ``skip`` prunes a subtree (the thread target inside its
    enclosing function).
    """
    out: list[_Access] = []

    def interesting(name: str | None) -> bool:
        return name is not None and (names_of_interest is None
                                     or name in names_of_interest)

    root = body

    def visit(node: ast.AST, locked: bool, nested: bool) -> None:
        if node is skip:
            return
        if isinstance(node, ast.With):
            item_locked = locked or any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in lock_names
                for item in node.items)
            for item in node.items:
                visit(item, locked, nested)
            for stmt in node.body:
                visit(stmt, item_locked, nested)
            return
        child_nested = nested or (node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
        if mutations_only:
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = _root_name(target)
                        if interesting(base):
                            out.append(_Access(base, target, locked, nested))
                    elif isinstance(target, ast.Name) \
                            and interesting(target.id):
                        out.append(_Access(target.id, target, locked, nested))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                base = _root_name(node.func.value)
                if interesting(base):
                    out.append(_Access(base, node, locked, nested))
        elif isinstance(node, ast.Name) and interesting(node.id):
            out.append(_Access(node.id, node, locked, nested))
        for child in ast.iter_child_nodes(node):
            visit(child, locked, child_nested)

    visit(body, False, False)
    return out


class ThreadSharedStateRule(Rule):
    name = "thread-shared-state"
    description = ("state written by a threading.Thread target and touched "
                   "by the spawning side must be lock-guarded or mediated "
                   "by a thread-safe object (Queue/Event)")
    example = ("src/repro/serving/openloop.py:201: [thread-shared-state] "
               "self.admitted is written by the drain thread and read here "
               "without the lock that guards it elsewhere")

    def begin_file(self, ctx: FileContext) -> None:
        self._reported: set[tuple[int, str]] = set()

    def visitors(self):
        return {"Call": self.check_call}

    def check_call(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.resolve_call(node) != "threading.Thread":
            return
        target = next((kw.value for kw in node.keywords
                       if kw.arg == "target"), None)
        if target is None and node.args:
            target = node.args[1] if len(node.args) > 1 else None
        if isinstance(target, ast.Lambda):
            ctx.report(target, self.name,
                       "lambda thread target: name the function so its "
                       "shared-state accesses can be audited (and "
                       "tracebacks name it)")
            return
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            self._check_method_case(ctx, target.attr)
        elif isinstance(target, ast.Name):
            func = ctx.enclosing_function()
            if func is not None:
                self._check_closure_case(ctx, node, func, target.id)

    def _report(self, ctx: FileContext, node: ast.AST, name: str, msg: str
                ) -> None:
        key = (getattr(node, "lineno", 0), name)
        if key not in self._reported:
            self._reported.add(key)
            ctx.report(node, self.name, msg)

    # -- closure pump ------------------------------------------------------

    def _check_closure_case(self, ctx: FileContext, thread_call: ast.Call,
                            func, target_name: str) -> None:
        thread_fn = next(
            (n for n in ast.walk(func)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
             and n.name == target_name), None)
        if thread_fn is None:
            return
        lock_names = _assigned_names(func, _LOCK_CTORS, ctx.imports)
        safe_names = _assigned_names(func, _SAFE_CTORS, ctx.imports)
        thread_local = _local_names(thread_fn)
        thread_writes = _collect_accesses(
            thread_fn, None, lock_names, mutations_only=True)
        shared = {a.name for a in thread_writes
                  if a.name not in thread_local and a.name not in safe_names}
        if not shared:
            return
        for access in thread_writes:
            if access.name in shared and not access.locked:
                self._report(
                    ctx, access.node, access.name,
                    f"'{access.name}' is written by thread target "
                    f"'{target_name}' outside the pump lock; guard the "
                    f"write with the lock both sides share")
        # Consumer side: the enclosing function minus the thread body.
        # Sequential windows — before the Thread object exists, after
        # join() — cannot race; helper closures get no such window.
        created_at = thread_call.lineno
        join_line = None
        thread_var = self._thread_var(func, thread_call)
        if thread_var is not None:
            for sub in ast.walk(func):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr == "join" \
                        and isinstance(sub.func.value, ast.Name) \
                        and sub.func.value.id == thread_var:
                    join_line = sub.lineno
        for access in _collect_accesses(func, shared, lock_names,
                                        skip=thread_fn):
            if access.locked:
                continue
            line = access.node.lineno
            if not access.nested and (line <= created_at or (
                    join_line is not None and line > join_line)):
                continue
            self._report(
                ctx, access.node, access.name,
                f"'{access.name}' is shared with thread target "
                f"'{target_name}' but accessed here without holding the "
                f"pump lock; guard it, mediate it through a queue, or "
                f"document why publication ordering makes it safe")

    @staticmethod
    def _thread_var(func, thread_call: ast.Call) -> str | None:
        for sub in ast.walk(func):
            if isinstance(sub, ast.Assign) and sub.value is thread_call:
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        return target.id
        return None

    # -- method pump -------------------------------------------------------

    def _check_method_case(self, ctx: FileContext, target_method: str
                           ) -> None:
        cls = ctx.enclosing_class()
        if cls is None:
            return
        methods = {n.name: n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if target_method not in methods:
            return
        # Methods reachable from the thread target via self.m() calls.
        reachable: set[str] = set()
        frontier = [target_method]
        while frontier:
            name = frontier.pop()
            if name in reachable or name not in methods:
                continue
            reachable.add(name)
            for sub in ast.walk(methods[name]):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Attribute) \
                        and isinstance(sub.func.value, ast.Name) \
                        and sub.func.value.id == "self":
                    frontier.append(sub.func.attr)
        lock_attrs, safe_attrs = self._class_sync_attrs(cls, ctx)
        thread_writes = [
            (m, a) for m in reachable
            for a in self._self_accesses(methods[m], lock_attrs,
                                         mutations_only=True)]
        written = {a.name for _, a in thread_writes} - safe_attrs - lock_attrs
        if not written:
            return
        consumer_methods = [m for m in methods
                            if m not in reachable and m != "__init__"]
        consumer_hits = [
            (m, a) for m in consumer_methods
            for a in self._self_accesses(methods[m], lock_attrs)
            if a.name in written]
        contested = {a.name for _, a in consumer_hits}
        for method, access in thread_writes:
            if access.name in contested and not access.locked:
                self._report(
                    ctx, access.node, access.name,
                    f"'self.{access.name}' is written in thread-reachable "
                    f"method '{method}' without holding the instance lock, "
                    f"but other methods read it; guard both sides or "
                    f"mediate through a queue")
        for method, access in consumer_hits:
            if not access.locked:
                self._report(
                    ctx, access.node, access.name,
                    f"'self.{access.name}' is written by the thread target "
                    f"'{target_method}' (via reachable methods) but "
                    f"accessed in '{method}' without the instance lock; "
                    f"guard it or mediate through a queue")

    @staticmethod
    def _class_sync_attrs(cls: ast.ClassDef, ctx: FileContext
                          ) -> tuple[set[str], set[str]]:
        lock_attrs: set[str] = set()
        safe_attrs: set[str] = set()
        for sub in ast.walk(cls):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                dotted = dotted_name(sub.value.func)
                resolved = ctx.imports.resolve(dotted) if dotted else None
                for target in sub.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        if resolved in _LOCK_CTORS:
                            lock_attrs.add(target.attr)
                        if resolved in _SAFE_CTORS:
                            safe_attrs.add(target.attr)
        return lock_attrs, safe_attrs

    @staticmethod
    def _self_accesses(method, lock_attrs: set[str], *,
                       mutations_only: bool = False) -> list[_Access]:
        """``self.attr`` accesses in one method, with with-lock context."""
        out: list[_Access] = []

        def is_self_attr(node: ast.AST) -> str | None:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                return node.attr
            return None

        def lockish(name: str) -> bool:
            return name in lock_attrs or "lock" in name.lower()

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                item_locked = locked or any(
                    (attr := is_self_attr(item.context_expr)) is not None
                    and lockish(attr)
                    for item in node.items)
                for stmt in node.body:
                    visit(stmt, item_locked)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    attr = is_self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = is_self_attr(target.value)
                    if attr is not None and not lockish(attr):
                        out.append(_Access(attr, target, locked, False))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                attr = is_self_attr(node.func.value)
                if attr is not None and not lockish(attr):
                    out.append(_Access(attr, node, locked, False))
            elif not mutations_only:
                attr = is_self_attr(node)
                if attr is not None and not lockish(attr):
                    out.append(_Access(attr, node, locked, False))
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        visit(method, False)
        return out
