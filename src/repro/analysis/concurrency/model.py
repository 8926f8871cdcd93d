"""Data model shared by the concurrency-analysis passes.

The extractor (:mod:`~repro.analysis.concurrency.extract`) turns each
source file into a :class:`ModuleModel` — locks, per-function field
accesses with the lexically-held lock set, call sites, acquisition
events, annotations.  The checking passes (guarded-by inference, lock
order, hygiene) consume these models and produce :class:`Violation`
records; everything downstream (baseline, CLI, tests) speaks in
violations and their stable fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Violation rule identifiers (the rule catalog; documented in
# docs/static_analysis.md).
UNGUARDED_READ = "unguarded-read"
UNGUARDED_WRITE = "unguarded-write"
UNGUARDED_RMW = "unguarded-rmw"
TORN_READ = "torn-read"
CHECK_THEN_ACT = "check-then-act"
LOCK_ORDER_CYCLE = "lock-order-cycle"
ACQUIRE_WITHOUT_WITH = "acquire-without-with"
WAIT_OUTSIDE_LOOP = "wait-outside-loop"
BLOCKING_CALL_UNDER_LOCK = "blocking-call-under-lock"
UNHELD_GUARDED_CALL = "unheld-guarded-call"
INIT_PUBLISH_AFTER_START = "init-publish-after-start"

ALL_RULES = (
    UNGUARDED_READ,
    UNGUARDED_WRITE,
    UNGUARDED_RMW,
    TORN_READ,
    CHECK_THEN_ACT,
    LOCK_ORDER_CYCLE,
    ACQUIRE_WITHOUT_WITH,
    WAIT_OUTSIDE_LOOP,
    BLOCKING_CALL_UNDER_LOCK,
    UNHELD_GUARDED_CALL,
    INIT_PUBLISH_AFTER_START,
)


@dataclass(frozen=True)
class LockDecl:
    """One lock the analyzer knows about.

    ``node`` is the graph-wide identity — ``<module>.<Class>.<attr>``
    for instance locks, ``<module>.<NAME>`` for module locks,
    ``<module>.<fn>()`` for factory-produced locks — and is the name
    the runtime sanitizer uses when wrapping the real object.
    """

    node: str
    kind: str                  # "lock" | "rlock" | "condition" | ...
    owner: str                 # class qualname or module dotted name
    attr: str                  # attribute / global / factory name
    file: str
    line: int


@dataclass(frozen=True)
class Access:
    """One read/write of a tracked field, with the held-lock context."""

    owner: str                 # "<module>.<Class>" or "<module>"
    obj_field: str             # attribute or global name
    kind: str                  # "read" | "write" | "rmw"
    held: frozenset            # lock nodes lexically held
    function: str              # function qualname
    file: str
    line: int
    in_init: bool = False      # __init__/module level: pre-publication
    waived: str | None = None  # lockfree_ok reason, if any


@dataclass(frozen=True)
class CallSite:
    """One call expression, with the held-lock context.

    ``target`` is a resolution hint produced by the extractor:
    ``("self_method", m)``, ``("attr_method", attr, m)``,
    ``("var_method", var, m)``, ``("chain_method", root, attrs, m)``
    (``root.a.b.m()`` with ``root`` being ``self`` or a local),
    ``("name", n)``, ``("dotted", "a.b.c")`` or
    ``("unknown_method", m)``.
    """

    target: tuple
    held: frozenset
    function: str
    file: str
    line: int
    repr: str = ""


@dataclass(frozen=True)
class AcquireEvent:
    """A ``with <lock>:`` entry — lock + what was already held."""

    lock: str
    held_before: frozenset
    function: str
    file: str
    line: int


@dataclass(frozen=True)
class RawLockOp:
    """A bare ``.acquire()`` / ``.release()`` on a known lock."""

    lock: str
    op: str                    # "acquire" | "release"
    function: str
    file: str
    line: int


@dataclass(frozen=True)
class CondWait:
    """A ``Condition.wait()`` call and whether a loop encloses it."""

    lock: str
    in_loop: bool
    held: frozenset
    function: str
    file: str
    line: int


@dataclass
class FunctionModel:
    """Everything extracted from one function/method body."""

    qualname: str              # "<module>.<Class>.<name>" or "<module>.<name>"
    name: str
    module: str
    cls: str | None            # owning class qualname, if a method
    file: str
    line: int
    params: tuple = ()
    param_type_hints: dict = field(default_factory=dict)  # param -> [names]
    local_type_hints: dict = field(default_factory=dict)  # local -> [names]
    returns_lock: bool = False
    guard_decorator: str | None = None    # raw @guarded_by argument
    is_init: bool = False
    accesses: list = field(default_factory=list)      # [Access]
    calls: list = field(default_factory=list)         # [CallSite]
    acquires: list = field(default_factory=list)      # [AcquireEvent]
    raw_lock_ops: list = field(default_factory=list)  # [RawLockOp]
    cond_waits: list = field(default_factory=list)    # [CondWait]
    starts_thread_at: int | None = None   # first .start() line in __init__


@dataclass
class ClassModel:
    """Locks, attribute types, and methods of one class."""

    qualname: str              # "<module>.<Name>"
    name: str
    module: str
    file: str
    line: int
    locks: dict = field(default_factory=dict)       # attr -> LockDecl
    attr_type_hints: dict = field(default_factory=dict)  # attr -> [names]
    declared_guards: dict = field(default_factory=dict)  # attr -> raw lock name
    methods: dict = field(default_factory=dict)     # name -> FunctionModel


@dataclass
class ModuleModel:
    """One parsed source file."""

    module: str                # dotted name, e.g. "repro.serve.metrics"
    file: str
    locks: dict = field(default_factory=dict)       # global -> LockDecl
    declared_guards: dict = field(default_factory=dict)  # global -> raw name
    data_globals: set = field(default_factory=set)  # module-level data names
    classes: dict = field(default_factory=dict)     # name -> ClassModel
    functions: dict = field(default_factory=dict)   # name -> FunctionModel
    imports: dict = field(default_factory=dict)     # alias -> dotted target

    def all_functions(self):
        for fn in self.functions.values():
            yield fn
        for cls in self.classes.values():
            yield from cls.methods.values()


@dataclass(frozen=True)
class Violation:
    """One finding; ``fingerprint`` is line-independent and stable."""

    rule: str
    module: str
    function: str              # qualname ("" for module-level findings)
    subject: str               # field / lock / callee the finding is about
    message: str
    file: str
    line: int
    waived: str | None = None

    @property
    def fingerprint(self) -> str:
        return "::".join((self.rule, self.module, self.function,
                          self.subject))

    def format(self) -> str:
        return (f"{self.file}:{self.line}: [{self.rule}] {self.message}")


@dataclass(frozen=True)
class GuardInference:
    """The inferred (or declared) guard of one field."""

    owner: str
    obj_field: str
    lock: str                  # lock node
    declared: bool             # True: annotation; False: inferred
    accesses: int              # non-init accesses seen
    guarded_accesses: int      # of which held the lock
