"""AST extraction: source files -> :class:`ModuleModel`.

One pass over each file builds, per function, the list of tracked
field accesses (instance attributes via ``self``, module-level data
globals) together with the *lexically held* lock set at each access,
every call site, every ``with <lock>:`` acquisition, bare
``.acquire()``/``.release()`` calls, and ``Condition.wait()`` sites.

Lock discovery is syntactic: an ``__init__`` (or module-level)
assignment whose value is a call to ``threading.Lock`` / ``RLock`` /
``Condition`` / ``Semaphore`` / ``BoundedSemaphore`` (bare or
attribute form) declares a lock.  A function whose return annotation
is a lock type is a *lock factory*: ``with factory(...):`` acquires
the synthetic node ``<module>.<factory>()``.  A ``with`` over anything
else is only treated as a lock when a trailing ``# holds: <name>``
annotation says so — file handles, executors, and other context
managers are ignored.

The walker is lexical, not path-sensitive: a ``with`` body holds the
lock, everything else does not.  ``Condition.wait()`` momentarily
releases its lock, but re-acquires before returning, so treating the
region as continuously held is sound for guarded-by purposes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.concurrency.model import (
    Access,
    AcquireEvent,
    CallSite,
    ClassModel,
    CondWait,
    FunctionModel,
    LockDecl,
    ModuleModel,
    RawLockOp,
)

#: threading constructors that produce a lock-like object.
LOCK_TYPES = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
}

#: Container methods that mutate their receiver: a call to one of
#: these on a tracked field counts as a *write* to the field.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "popleft",
})

_GUARD_RE = re.compile(r"#\s*guarded_by:\s*([A-Za-z_][\w.]*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([^\s#]+)")
_WAIVE_RE = re.compile(r"#\s*lockfree_ok:\s*(.+?)\s*$")

_INIT_NAMES = frozenset({"__init__", "__post_init__", "__new__"})


def module_name_for(path: Path) -> str:
    """Dotted module name: everything from the ``repro`` package down,
    else the file stem (corpus fixtures analyze standalone)."""
    parts = list(path.parts)
    if "repro" in parts:
        sub = parts[parts.index("repro"):]
        sub[-1] = Path(sub[-1]).stem
        if sub[-1] == "__init__":
            sub = sub[:-1]
        return ".".join(sub)
    return path.stem


def _lock_kind_of_call(node: ast.expr) -> str | None:
    """The lock kind when ``node`` is a call to a threading ctor."""
    if not isinstance(node, ast.Call):
        return None
    fn = node.func
    if isinstance(fn, ast.Name):
        return LOCK_TYPES.get(fn.id)
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        if fn.value.id == "threading":
            return LOCK_TYPES.get(fn.attr)
    return None


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Class-name candidates mentioned in a type annotation."""
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            parts = _dotted(sub)
            if parts:
                names.append(parts)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.append(sub.value)
    return names


def _annotation_is_lock(node: ast.expr | None) -> bool:
    for name in _annotation_names(node):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in LOCK_TYPES:
            return True
    return False


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-dotted expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guard_comment(lines: list[str], lineno: int) -> str | None:
    if 0 < lineno <= len(lines):
        match = _GUARD_RE.search(lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _holds_comment(lines: list[str], lineno: int) -> str | None:
    if 0 < lineno <= len(lines):
        match = _HOLDS_RE.search(lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _waiver(lines: list[str], lineno: int) -> str | None:
    if 0 < lineno <= len(lines):
        match = _WAIVE_RE.search(lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _decorator_guard(fn: ast.FunctionDef) -> str | None:
    """The argument of an ``@guarded_by("...")`` decorator, if any."""
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call) or not deco.args:
            continue
        name = (
            deco.func.id if isinstance(deco.func, ast.Name)
            else deco.func.attr if isinstance(deco.func, ast.Attribute)
            else None
        )
        if name == "guarded_by":
            arg = deco.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def _local_names(fn: ast.FunctionDef) -> set[str]:
    """Names bound locally in ``fn`` (shadowing module globals)."""
    bound: set[str] = set()
    args = fn.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            bound.add(node.name)
    return bound - declared_global


class _Extractor:
    """Walks one module AST into a ModuleModel."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = str(path)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.mod = ModuleModel(module=module_name_for(Path(path)),
                               file=self.path)

    # -- module / class structure ---------------------------------------

    def run(self) -> ModuleModel:
        body = self.tree.body
        self._collect_imports(body)
        self._collect_module_globals(body)
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._extract_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node, cls=None)
        # Module-level statements count as pre-publication "init" code.
        toplevel = [
            n for n in body
            if not isinstance(n, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.Import,
                                  ast.ImportFrom))
        ]
        if toplevel:
            pseudo = FunctionModel(
                qualname=f"{self.mod.module}.<module>", name="<module>",
                module=self.mod.module, cls=None, file=self.path,
                line=1, is_init=True,
            )
            _BodyWalker(self, pseudo, cls=None).walk(toplevel,
                                                     held=(), loops=0)
            self.mod.functions["<module>"] = pseudo
        return self.mod

    def _collect_imports(self, body) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.mod.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.mod.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _collect_module_globals(self, body) -> None:
        for node in body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                kind = _lock_kind_of_call(value)
                if kind:
                    self.mod.locks[target.id] = LockDecl(
                        node=f"{self.mod.module}.{target.id}",
                        kind=kind, owner=self.mod.module,
                        attr=target.id, file=self.path, line=node.lineno,
                    )
                    continue
                self.mod.data_globals.add(target.id)
                guard = _guard_comment(self.lines, node.lineno)
                if guard:
                    self.mod.declared_guards[target.id] = guard

    def _extract_class(self, node: ast.ClassDef) -> None:
        cls = ClassModel(
            qualname=f"{self.mod.module}.{node.name}", name=node.name,
            module=self.mod.module, file=self.path, line=node.lineno,
        )
        self.mod.classes[node.name] = cls
        # Class-level lock assignments (rare, but legal).
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        kind = _lock_kind_of_call(stmt.value)
                        if kind:
                            cls.locks[target.id] = LockDecl(
                                node=f"{cls.qualname}.{target.id}",
                                kind=kind, owner=cls.qualname,
                                attr=target.id, file=self.path,
                                line=stmt.lineno,
                            )
        init = next(
            (s for s in node.body
             if isinstance(s, ast.FunctionDef) and s.name in _INIT_NAMES),
            None,
        )
        if init is not None:
            self._scan_init_decls(cls, init)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, cls=cls)

    def _scan_init_decls(self, cls: ClassModel, init: ast.FunctionDef):
        """Locks, attribute-type hints, and declared guards from init."""
        init_params = {
            a.arg: a.annotation
            for a in init.args.posonlyargs + init.args.args
            + init.args.kwonlyargs
        }
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                kind = _lock_kind_of_call(value)
                if kind:
                    cls.locks[attr] = LockDecl(
                        node=f"{cls.qualname}.{attr}", kind=kind,
                        owner=cls.qualname, attr=attr,
                        file=self.path, line=stmt.lineno,
                    )
                    continue
                guard = _guard_comment(self.lines, stmt.lineno)
                if guard:
                    cls.declared_guards[attr] = guard
                hints: list[str] = []
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Call):
                        dotted = _dotted(sub.func)
                        if dotted:
                            hints.append(dotted)
                if isinstance(stmt, ast.AnnAssign):
                    hints.extend(_annotation_names(stmt.annotation))
                if isinstance(value, ast.Name):
                    hints.extend(_annotation_names(init_params.get(value.id)))
                if hints:
                    cls.attr_type_hints.setdefault(attr, hints)

    def _extract_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassModel | None,
    ) -> None:
        owner = cls.qualname if cls else self.mod.module
        fn = FunctionModel(
            qualname=f"{owner}.{node.name}", name=node.name,
            module=self.mod.module,
            cls=cls.qualname if cls else None,
            file=self.path, line=node.lineno,
            params=tuple(
                a.arg for a in node.args.posonlyargs + node.args.args
                + node.args.kwonlyargs
            ),
            param_type_hints={
                a.arg: _annotation_names(a.annotation)
                for a in node.args.posonlyargs + node.args.args
                + node.args.kwonlyargs
                if a.annotation is not None
            },
            returns_lock=_annotation_is_lock(node.returns),
            guard_decorator=_decorator_guard(node),
            is_init=(cls is not None and node.name in _INIT_NAMES),
        )
        if cls is not None:
            cls.methods[node.name] = fn
        else:
            self.mod.functions[node.name] = fn
        held: tuple = ()
        if fn.guard_decorator:
            resolved = self.resolve_lock_name(fn.guard_decorator, cls)
            if resolved:
                held = (resolved,)
        _BodyWalker(self, fn, cls, frozenset(_local_names(node))).walk(
            node.body, held=held, loops=0
        )

    # -- shared resolution helpers --------------------------------------

    def resolve_lock_name(self, raw: str, cls: ClassModel | None
                          ) -> str | None:
        """A raw annotation name -> lock node, searching class then
        module scope.  Unknown names become synthetic module nodes so
        a declared guard is never silently dropped."""
        if cls is not None and raw in cls.locks:
            return cls.locks[raw].node
        if raw in self.mod.locks:
            return self.mod.locks[raw].node
        if "." in raw:
            return raw
        return f"{self.mod.module}.{raw}"

    def lock_of_expr(self, expr: ast.expr, cls: ClassModel | None,
                     lineno: int) -> str | None:
        """The lock node a ``with`` item acquires, if recognizable."""
        attr = _self_attr(expr)
        if attr is not None and cls is not None and attr in cls.locks:
            return cls.locks[attr].node
        if isinstance(expr, ast.Name) and expr.id in self.mod.locks:
            return self.mod.locks[expr.id].node
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, ast.Name):
                target = self.mod.functions.get(callee.id)
                if target is not None and target.returns_lock:
                    return f"{self.mod.module}.{callee.id}()"
            method = _self_attr(callee) if isinstance(callee, ast.Attribute) \
                else None
            if method and cls is not None:
                target = cls.methods.get(method)
                if target is not None and target.returns_lock:
                    return f"{cls.qualname}.{method}()"
        holds = _holds_comment(self.lines, lineno)
        if holds:
            if "." in holds:
                return holds
            return f"{self.mod.module}.{holds}"
        return None

    def lock_decl_of_expr(self, expr: ast.expr, cls: ClassModel | None
                          ) -> LockDecl | None:
        """The LockDecl behind ``self.X`` / global ``X``, if declared."""
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            return cls.locks.get(attr)
        if isinstance(expr, ast.Name):
            return self.mod.locks.get(expr.id)
        return None


class _BodyWalker:
    """Walks one function body, tracking held locks lexically."""

    def __init__(self, ext: _Extractor, fn: FunctionModel,
                 cls: ClassModel | None,
                 local_names: frozenset = frozenset()) -> None:
        self.ext = ext
        self.fn = fn
        self.cls = cls
        self.locals = local_names  # names shadowing module globals

    # -- events ----------------------------------------------------------

    def _access(self, owner: str, obj_field: str, kind: str,
                held: tuple, line: int) -> None:
        self.fn.accesses.append(Access(
            owner=owner, obj_field=obj_field, kind=kind,
            held=frozenset(held), function=self.fn.qualname,
            file=self.ext.path, line=line, in_init=self.fn.is_init,
            waived=_waiver(self.ext.lines, line),
        ))

    def _self_access(self, attr: str, kind: str, held: tuple,
                     line: int) -> None:
        if self.cls is None:
            return
        if attr in self.cls.locks:
            return                      # the locks themselves are not data
        self._access(self.cls.qualname, attr, kind, held, line)

    def _global_access(self, name: str, kind: str, held: tuple,
                       line: int) -> None:
        if name in self.ext.mod.locks:
            return
        if name not in self.ext.mod.data_globals:
            return
        if name in self.locals:
            return
        self._access(self.ext.mod.module, name, kind, held, line)

    # -- statements ------------------------------------------------------

    def walk(self, stmts, held: tuple, loops: int) -> None:
        # Loop depth is mirrored into an attribute so _call (which does
        # not take a ``loops`` parameter) can see whether a wait() sits
        # inside a loop.
        previous = getattr(self, "_loop_depth", 0)
        self._loop_depth = loops
        try:
            for stmt in stmts:
                self._stmt(stmt, held, loops)
        finally:
            self._loop_depth = previous

    def _stmt(self, stmt, held: tuple, loops: int) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs execute later: analyze with an empty held set.
            self.ext._extract_function(stmt, cls=None)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, held, loops)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, held)
            self.walk(stmt.body, held, loops)
            self.walk(stmt.orelse, held, loops)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, held)
            self.walk(stmt.body, held, loops + 1)
            self.walk(stmt.orelse, held, loops)
            return
        if isinstance(stmt, ast.For):
            attr = _self_attr(stmt.iter)
            if (
                attr is not None and self.cls is not None
                and isinstance(stmt.target, ast.Name)
            ):
                # Iterating a typed container attribute: the loop
                # variable has the attribute's element type.
                self.fn.local_type_hints[stmt.target.id] = (
                    self.cls.attr_type_hints.get(attr, [])
                )
            self._expr(stmt.iter, held)
            self._target(stmt.target, held)
            self.walk(stmt.body, held, loops + 1)
            self.walk(stmt.orelse, held, loops)
            return
        if isinstance(stmt, ast.Try):
            self.walk(stmt.body, held, loops)
            for handler in stmt.handlers:
                self.walk(handler.body, held, loops)
            self.walk(stmt.orelse, held, loops)
            self.walk(stmt.finalbody, held, loops)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, held)
            for target in stmt.targets:
                self._target(target, held)
            if self.fn.is_init:
                self._note_thread_start(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                self.fn.local_type_hints[stmt.target.id] = (
                    _annotation_names(stmt.annotation)
                )
            if stmt.value is not None:
                self._expr(stmt.value, held)
                self._target(stmt.target, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, held)
            self._aug_target(stmt.target, held)
            return
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, held)
            if self.fn.is_init:
                self._note_thread_start(stmt)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc:
                self._expr(stmt.exc, held)
            if stmt.cause:
                self._expr(stmt.cause, held)
            return
        if isinstance(stmt, ast.Assert):
            self._expr(stmt.test, held)
            if stmt.msg:
                self._expr(stmt.msg, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._subscript_store(target, held)
                else:
                    self._expr(target, held)
            return
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing tracked.

    def _note_thread_start(self, stmt) -> None:
        """Remember the first ``<something>.start()`` in __init__."""
        if self.fn.starts_thread_at is not None:
            return
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
            ):
                self.fn.starts_thread_at = node.lineno
                return

    def _with(self, stmt, held: tuple, loops: int) -> None:
        new_held = held
        for item in stmt.items:
            # The context expression evaluates under the *previous* set.
            self._expr(item.context_expr, new_held, as_with_item=True)
            lock = self.ext.lock_of_expr(item.context_expr, self.cls,
                                         stmt.lineno)
            if lock is not None:
                self.fn.acquires.append(AcquireEvent(
                    lock=lock, held_before=frozenset(new_held),
                    function=self.fn.qualname, file=self.ext.path,
                    line=stmt.lineno,
                ))
                new_held = new_held + (lock,)
            if item.optional_vars is not None:
                self._target(item.optional_vars, new_held)
        self.walk(stmt.body, new_held, loops)

    # -- assignment targets ----------------------------------------------

    def _target(self, target, held: tuple) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, held)
            return
        if isinstance(target, ast.Starred):
            self._target(target.value, held)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._self_access(attr, "write", held, target.lineno)
            return
        if isinstance(target, ast.Name):
            self._global_access(target.id, "write", held, target.lineno)
            return
        if isinstance(target, ast.Subscript):
            self._subscript_store(target, held)
            return
        if isinstance(target, ast.Attribute):
            self._expr(target.value, held)

    def _subscript_store(self, target: ast.Subscript, held: tuple) -> None:
        attr = _self_attr(target.value)
        if attr is not None:
            self._self_access(attr, "write", held, target.lineno)
        elif isinstance(target.value, ast.Name):
            self._global_access(target.value.id, "write", held,
                                target.lineno)
        else:
            self._expr(target.value, held)
        self._expr(target.slice, held)

    def _aug_target(self, target, held: tuple) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._self_access(attr, "rmw", held, target.lineno)
            return
        if isinstance(target, ast.Name):
            self._global_access(target.id, "rmw", held, target.lineno)
            return
        if isinstance(target, ast.Subscript):
            # d[k] += 1 reads and writes the container.
            inner = _self_attr(target.value)
            if inner is not None:
                self._self_access(inner, "rmw", held, target.lineno)
            elif isinstance(target.value, ast.Name):
                self._global_access(target.value.id, "rmw", held,
                                    target.lineno)
            else:
                self._expr(target.value, held)
            self._expr(target.slice, held)

    # -- expressions -----------------------------------------------------

    def _expr(self, node, held: tuple, as_with_item: bool = False) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._call(node, held, as_with_item)
            return
        attr = _self_attr(node)
        if attr is not None:
            self._self_access(attr, "read", held, node.lineno)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._global_access(node.id, "read", held, node.lineno)
            return
        if isinstance(node, ast.Attribute):
            self._expr(node.value, held)
            return
        if isinstance(node, ast.Lambda):
            return                       # executes later
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                self._expr(gen.iter, held)
                for cond in gen.ifs:
                    self._expr(cond, held)
            if isinstance(node, ast.DictComp):
                self._expr(node.key, held)
                self._expr(node.value, held)
            else:
                self._expr(node.elt, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, held)
            elif isinstance(child, ast.keyword):
                self._expr(child.value, held)

    def _call(self, node: ast.Call, held: tuple,
              as_with_item: bool = False) -> None:
        fn_expr = node.func
        target: tuple | None = None
        receiver_handled = False

        decl = None
        if isinstance(fn_expr, ast.Attribute):
            decl = self.ext.lock_decl_of_expr(fn_expr.value, self.cls)
        if decl is not None and isinstance(fn_expr, ast.Attribute):
            receiver_handled = True
            if fn_expr.attr in ("acquire", "release"):
                self.fn.raw_lock_ops.append(RawLockOp(
                    lock=decl.node, op=fn_expr.attr,
                    function=self.fn.qualname, file=self.ext.path,
                    line=node.lineno,
                ))
            elif fn_expr.attr in ("wait", "wait_for") \
                    and decl.kind == "condition":
                self.fn.cond_waits.append(CondWait(
                    lock=decl.node,
                    in_loop=self._loops > 0,
                    held=frozenset(held), function=self.fn.qualname,
                    file=self.ext.path, line=node.lineno,
                ))

        if isinstance(fn_expr, ast.Name):
            target = ("name", fn_expr.id)
        elif isinstance(fn_expr, ast.Attribute):
            method = fn_expr.attr
            base = fn_expr.value
            base_attr = _self_attr(base)
            if isinstance(base, ast.Name) and base.id == "self":
                target = ("self_method", method)
                receiver_handled = True
            elif base_attr is not None:
                target = ("attr_method", base_attr, method)
                if not receiver_handled:
                    kind = ("write" if method in MUTATOR_METHODS
                            else "read")
                    self._self_access(base_attr, kind, held, node.lineno)
                    receiver_handled = True
            elif isinstance(base, ast.Name):
                if base.id in self.ext.mod.data_globals \
                        and base.id not in self.locals:
                    kind = ("write" if method in MUTATOR_METHODS
                            else "read")
                    self._global_access(base.id, kind, held, node.lineno)
                    receiver_handled = True
                    target = ("unknown_method", method)
                elif base.id in self.ext.mod.imports:
                    dotted = f"{self.ext.mod.imports[base.id]}.{method}"
                    target = ("dotted", dotted)
                    receiver_handled = True
                else:
                    target = ("var_method", base.id, method)
                    receiver_handled = True
            else:
                chain = _dotted(base)
                root, _, rest = (chain or "").partition(".")
                if chain and (root == "self" or (
                    root in self.locals
                    and root not in self.ext.mod.imports
                )):
                    target = ("chain_method", root,
                              tuple(rest.split(".")), method)
                else:
                    target = ("unknown_method", method)
                self._expr(base, held)
                receiver_handled = True
        else:
            self._expr(fn_expr, held)

        if target is not None:
            try:
                text = ast.unparse(fn_expr)
            except Exception:                     # pragma: no cover
                text = str(target)
            self.fn.calls.append(CallSite(
                target=target, held=frozenset(held),
                function=self.fn.qualname, file=self.ext.path,
                line=node.lineno, repr=text,
            ))
        if isinstance(fn_expr, ast.Attribute) and not receiver_handled:
            self._expr(fn_expr.value, held)

        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._expr(arg.value, held)
            else:
                self._expr(arg, held)
        for kw in node.keywords:
            self._expr(kw.value, held)

    @property
    def _loops(self) -> int:
        return getattr(self, "_loop_depth", 0)


def extract_module(path: str | Path) -> ModuleModel:
    """Parse one source file into a ModuleModel."""
    path = Path(path)
    return _Extractor(path, path.read_text()).run()
