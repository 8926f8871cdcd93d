"""Lock-hygiene lints: the rules that are about *how* locks are used.

``acquire-without-with``
    A bare ``lock.acquire()`` — exception-unsafe, invisible to the
    lexical held-set tracking, and trivially replaced by ``with``.
    Matching ``release()`` calls are folded into the same finding.

``wait-outside-loop``
    ``Condition.wait()`` not enclosed by a loop: wakeups are allowed
    to be spurious, so the predicate must be re-checked.

``blocking-call-under-lock``
    While holding a lock, calling something that can block on the
    outside world — file I/O, ``time.sleep``, atomic-rename helpers —
    or invoking a *caller-supplied callback* (a call through a
    parameter with a callable annotation).  Blocking-ness propagates
    transitively through resolved calls.

``unheld-guarded-call``
    A resolved call to a ``@guarded_by("X")`` function from a context
    that does not hold ``X``.

``init-publish-after-start``
    ``__init__`` assigns ``self.*`` *after* starting a thread: the
    thread may observe the object half-built.
"""

from __future__ import annotations

from repro.analysis.concurrency.model import (
    ACQUIRE_WITHOUT_WITH,
    BLOCKING_CALL_UNDER_LOCK,
    INIT_PUBLISH_AFTER_START,
    UNHELD_GUARDED_CALL,
    WAIT_OUTSIDE_LOOP,
    Violation,
)

#: Module-qualified callables that block (matched against resolved
#: dotted names, so a local variable named ``sleep`` cannot trip it).
DOTTED_BLOCKING = frozenset({
    "time.sleep",
    "os.replace", "os.rename", "os.remove", "os.fdopen",
    "socket.create_connection",
    "subprocess.run", "subprocess.check_output",
})

#: Method names that block regardless of receiver type.  Deliberately
#: narrow — ``join``/``result``/``submit`` are excluded because
#: ``str.join`` and this repo's in-process executor shims would drown
#: the signal in false positives.
METHOD_BLOCKING = frozenset({"read_text", "write_text", "read_bytes",
                             "write_bytes"})

#: Bare names that block.
NAME_BLOCKING = frozenset({"open"})

_CALLABLE_HINTS = ("Callable", "callable")


def _callback_params(fn) -> set:
    """Parameters annotated as callables: calling one under a lock
    hands the lock's critical section to arbitrary caller code."""
    out = set()
    for param, hints in fn.param_type_hints.items():
        for hint in hints:
            if any(hint.startswith(c) or hint.endswith(c)
                   for c in _CALLABLE_HINTS):
                out.add(param)
    return out


def _blocking_reason(call, fn, mod) -> str | None:
    kind = call.target[0]
    if kind == "dotted" and call.target[1] in DOTTED_BLOCKING:
        return call.target[1]
    if kind == "name":
        name = call.target[1]
        if name in NAME_BLOCKING and name not in mod.functions:
            return name
        dotted = mod.imports.get(name)
        if dotted in DOTTED_BLOCKING:
            return dotted
        if name in _callback_params(fn) or (
            name in fn.params and name in _callback_params(fn)
        ):
            return f"callback {name}()"
    if kind in ("attr_method", "var_method", "chain_method",
                "unknown_method"):
        method = call.target[-1]
        if method in METHOD_BLOCKING:
            return f".{method}()"
        if kind == "var_method" and call.target[1] in _callback_params(fn):
            return f"callback {call.target[1]}.{method}()"
    return None


def _transitive_blockers(modules, indexes, resolve) -> dict:
    """Fixpoint: function qualname -> the blocking reason reachable
    from its body with no locks involved (or None)."""
    reason = {}
    fn_of = {}
    mod_of = {}
    for mod in modules:
        for fn in mod.all_functions():
            fn_of[fn.qualname] = fn
            mod_of[fn.qualname] = mod
            direct = None
            for call in fn.calls:
                direct = _blocking_reason(call, fn, mod)
                if direct:
                    break
            reason[fn.qualname] = direct
    changed = True
    while changed:
        changed = False
        for qualname, fn in fn_of.items():
            if reason[qualname]:
                continue
            for call in fn.calls:
                target = resolve(call, fn, mod_of[qualname], indexes)
                if target is None:
                    continue
                inner = reason.get(target.qualname)
                if inner:
                    reason[qualname] = (
                        f"{target.qualname.rsplit('.', 1)[-1]}()"
                        f" -> {inner}"
                    )
                    changed = True
                    break
    return reason


def check_hygiene(modules, indexes, resolve) -> list:
    violations: list = []
    blockers = _transitive_blockers(modules, indexes, resolve)

    for mod in modules:
        for fn in mod.all_functions():
            # acquire-without-with (one finding per lock per function)
            raw_locks = {}
            for op in fn.raw_lock_ops:
                raw_locks.setdefault(op.lock, op)
            for lock, op in sorted(raw_locks.items()):
                violations.append(Violation(
                    rule=ACQUIRE_WITHOUT_WITH, module=fn.module,
                    function=fn.qualname, subject=lock,
                    message=(
                        f"{lock}.{op.op}() called directly; use "
                        f"'with' so exceptions cannot leak the lock"
                    ),
                    file=op.file, line=op.line,
                ))

            # wait-outside-loop
            for wait in fn.cond_waits:
                if wait.in_loop:
                    continue
                violations.append(Violation(
                    rule=WAIT_OUTSIDE_LOOP, module=fn.module,
                    function=fn.qualname, subject=wait.lock,
                    message=(
                        f"{wait.lock}.wait() outside a predicate loop: "
                        f"wakeups may be spurious, re-check in a while"
                    ),
                    file=wait.file, line=wait.line,
                ))

            # blocking-call-under-lock + unheld-guarded-call
            seen_blocking = set()
            for call in fn.calls:
                if call.held:
                    reason = _blocking_reason(call, fn, mod)
                    target = None
                    if reason is None:
                        target = resolve(call, fn, mod, indexes)
                        if target is not None:
                            reason = blockers.get(target.qualname)
                    if reason:
                        waived = _call_waiver(mod, call)
                        key = (min(call.held), reason.split()[-1])
                        if key not in seen_blocking:
                            seen_blocking.add(key)
                            violations.append(Violation(
                                rule=BLOCKING_CALL_UNDER_LOCK,
                                module=fn.module, function=fn.qualname,
                                subject=f"{sorted(call.held)[0]}"
                                        f"::{call.repr}",
                                message=(
                                    f"{call.repr}() can block "
                                    f"({reason}) while holding "
                                    f"{sorted(call.held)[0]}"
                                ),
                                file=call.file, line=call.line,
                                waived=waived,
                            ))
                target = resolve(call, fn, mod, indexes)
                if target is not None and target.guard_decorator:
                    need = _resolve_guard(target, modules)
                    if need and need not in call.held:
                        violations.append(Violation(
                            rule=UNHELD_GUARDED_CALL, module=fn.module,
                            function=fn.qualname,
                            subject=target.qualname,
                            message=(
                                f"{target.qualname} is "
                                f"@guarded_by({target.guard_decorator!r})"
                                f" but this call does not hold {need}"
                            ),
                            file=call.file, line=call.line,
                            waived=_call_waiver(mod, call),
                        ))

            # init-publish-after-start
            if fn.is_init and fn.starts_thread_at is not None:
                late = [
                    a for a in fn.accesses
                    if a.kind in ("write", "rmw")
                    and a.line > fn.starts_thread_at and not a.held
                ]
                for access in late:
                    violations.append(Violation(
                        rule=INIT_PUBLISH_AFTER_START, module=fn.module,
                        function=fn.qualname, subject=access.obj_field,
                        message=(
                            f"__init__ assigns {access.obj_field} after "
                            f"starting a thread at line "
                            f"{fn.starts_thread_at}; the thread can see "
                            f"the object half-built"
                        ),
                        file=access.file, line=access.line,
                        waived=access.waived,
                    ))
    return violations


def _call_waiver(mod, call) -> str | None:
    """``# lockfree_ok:`` on the call's own source line."""
    from repro.analysis.concurrency.extract import _WAIVE_RE
    try:
        from pathlib import Path
        lines = Path(call.file).read_text().splitlines()
    except OSError:                              # pragma: no cover
        return None
    if 0 < call.line <= len(lines):
        match = _WAIVE_RE.search(lines[call.line - 1])
        if match:
            return match.group(1)
    return None


def _resolve_guard(target, modules) -> str | None:
    """A guard decorator's raw name -> lock node for the target fn."""
    raw = target.guard_decorator
    if raw is None:
        return None
    if "." in raw:
        return raw
    for mod in modules:
        if mod.module != target.module:
            continue
        if target.cls is not None:
            cls = mod.classes.get(target.cls.rsplit(".", 1)[-1])
            if cls is not None and raw in cls.locks:
                return cls.locks[raw].node
        if raw in mod.locks:
            return mod.locks[raw].node
        return f"{mod.module}.{raw}"
    return raw
