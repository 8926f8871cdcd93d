"""Whole-program lock-order graph and deadlock (cycle) detection.

Edges mean "held while acquiring": ``A -> B`` when some execution path
acquires lock ``B`` while already holding ``A``.  Two sources feed the
graph:

1. **Direct nesting** — a ``with other:`` inside a ``with one:`` body
   (the extractor records the held-before set on every AcquireEvent).
2. **Transitive acquisition** — a call made while holding ``A`` to a
   function that (transitively) acquires ``B``.  Call targets resolve
   through ``self`` methods, attribute types inferred from
   ``__init__`` assignments, parameter and local annotations, attribute
   chains (``self.gen.runtime.submit()``), module imports,
   and — as a last resort — a unique method name across the program.
   Unresolvable calls contribute nothing (unsoundness is traded for
   zero false cycles from dynamic dispatch).

A cycle in this graph is a potential deadlock; each is reported once
with a witness path of edges, every edge carrying the function and
line that created it.  The graph also exports to DOT and yields a
total acquisition order (topological, ties broken lexicographically)
that the runtime sanitizer enforces during soak tests.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.concurrency.model import LOCK_ORDER_CYCLE, Violation


class LockOrderGraph:
    """Directed lock graph with edge provenance."""

    def __init__(self) -> None:
        self.nodes: set = set()
        # (src, dst) -> list of (function, file, line, why)
        self.edges: dict = defaultdict(list)

    def add_node(self, node: str) -> None:
        self.nodes.add(node)

    def add_edge(self, src: str, dst: str, function: str, file: str,
                 line: int, why: str) -> None:
        if src == dst:
            return               # re-entrant acquire; hygiene's problem
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges[(src, dst)].append((function, file, line, why))

    def successors(self, node: str):
        return sorted({d for (s, d) in self.edges if s == node})

    def cycles(self) -> list:
        """Elementary cycles, each as an ordered node list (no dup)."""
        adjacency = defaultdict(list)
        for (src, dst) in self.edges:
            adjacency[src].append(dst)
        for nbrs in adjacency.values():
            nbrs.sort()
        found: list = []
        seen_keys: set = set()
        # Bounded DFS from each node; fine at this graph size (tens of
        # locks, not thousands).
        for start in sorted(self.nodes):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt == start and len(path) > 1:
                        key = frozenset(path)
                        if key not in seen_keys:
                            seen_keys.add(key)
                            found.append(list(path))
                    elif nxt not in path and nxt > start:
                        # Only explore nodes > start: each cycle is
                        # found exactly once, rooted at its minimum.
                        stack.append((nxt, path + [nxt]))
                # Direct 2-cycles where the partner < start are caught
                # when the partner is the root.
        # The ">" pruning above misses cycles whose minimum has an
        # incoming edge from a smaller node outside the cycle — it
        # cannot: every cycle is explored from its own minimum node.
        return found

    def witness(self, cycle: list) -> list:
        """One (src, dst, function, file, line) per edge of the cycle."""
        steps = []
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            function, file, line, _why = self.edges[(src, dst)][0]
            steps.append((src, dst, function, file, line))
        return steps

    def topological_order(self) -> list:
        """Total order consistent with the edges (cycles excluded by
        dropping back-edges found during the sort)."""
        indegree = {n: 0 for n in self.nodes}
        for (_, dst), _sites in self.edges.items():
            indegree[dst] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in self.successors(node):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        # Cyclic leftovers (if any) appended in name order so the
        # sanitizer still gets a total order to check against.
        order.extend(sorted(n for n in self.nodes if n not in set(order)))
        return order

    def to_dot(self) -> str:
        lines = [
            "digraph lock_order {",
            '  rankdir=LR;',
            '  node [shape=box, fontname="monospace", fontsize=10];',
        ]
        for node in sorted(self.nodes):
            lines.append(f'  "{node}";')
        for (src, dst), sites in sorted(self.edges.items()):
            function, _file, line, _why = sites[0]
            label = f"{function.rsplit('.', 1)[-1]}:{line}"
            lines.append(
                f'  "{src}" -> "{dst}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _build_indexes(modules):
    classes = {}          # class qualname -> ClassModel
    by_class_name = defaultdict(list)
    functions = {}        # function qualname -> FunctionModel
    by_fn_name = defaultdict(list)
    module_fns = {}       # (module, name) -> FunctionModel
    for mod in modules:
        for cls in mod.classes.values():
            classes[cls.qualname] = cls
            by_class_name[cls.name].append(cls)
        for fn in mod.all_functions():
            functions[fn.qualname] = fn
            by_fn_name[fn.name].append(fn)
        for name, fn in mod.functions.items():
            module_fns[(mod.module, name)] = fn
    return classes, by_class_name, functions, by_fn_name, module_fns


def _class_of_hint(hints, by_class_name, imports):
    """First type-hint name resolving to a known class.  Hints are
    leaf names (``Histogram``) or dotted (``metrics.Histogram``); the
    class index is by leaf name, which is unambiguous in this repo."""
    for hint in hints:
        leaf = hint.rsplit(".", 1)[-1]
        candidates = by_class_name.get(leaf, ())
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            dotted = imports.get(hint.split(".", 1)[0], "")
            for cls in candidates:
                if dotted.startswith(cls.module):
                    return cls
            return candidates[0]
    return None


def _class_of_var(var, fn, mod, indexes):
    """Class of a parameter or local from its annotation (or, for a
    loop over ``self.attr``, the attribute's element type)."""
    hints = fn.param_type_hints.get(var) or fn.local_type_hints.get(var, [])
    return _class_of_hint(hints, indexes[1], mod.imports)


def resolve_call(call, fn, mod, indexes):
    """CallSite -> FunctionModel, or None when dynamic/external."""
    classes, by_class_name, _functions, by_fn_name, module_fns = indexes
    kind = call.target[0]
    if kind == "self_method":
        method = call.target[1]
        if fn.cls is not None:
            cls = classes.get(fn.cls)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
        return None
    if kind == "attr_method":
        attr, method = call.target[1], call.target[2]
        cls = classes.get(fn.cls) if fn.cls else None
        hints = cls.attr_type_hints.get(attr, []) if cls else []
        target_cls = _class_of_hint(hints, by_class_name, mod.imports)
        if target_cls is not None and method in target_cls.methods:
            return target_cls.methods[method]
        return _unique_method(method, by_fn_name)
    if kind == "var_method":
        var, method = call.target[1], call.target[2]
        target_cls = _class_of_var(var, fn, mod, indexes)
        if target_cls is not None and method in target_cls.methods:
            return target_cls.methods[method]
        return _unique_method(method, by_fn_name)
    if kind == "chain_method":
        root, attrs, method = call.target[1:]
        target_cls = (
            classes.get(fn.cls) if root == "self" and fn.cls
            else _class_of_var(root, fn, mod, indexes)
        )
        for attr in attrs:
            if target_cls is None:
                break
            target_cls = _class_of_hint(
                target_cls.attr_type_hints.get(attr, []),
                by_class_name, mod.imports,
            )
        if target_cls is not None and method in target_cls.methods:
            return target_cls.methods[method]
        return _unique_method(method, by_fn_name)
    if kind == "name":
        name = call.target[1]
        if (mod.module, name) in module_fns:
            return module_fns[(mod.module, name)]
        dotted = mod.imports.get(name)
        if dotted and "." in dotted:
            owner, leaf = dotted.rsplit(".", 1)
            if (owner, leaf) in module_fns:
                return module_fns[(owner, leaf)]
        return None
    if kind == "dotted":
        dotted = call.target[1]
        if "." in dotted:
            owner, leaf = dotted.rsplit(".", 1)
            return module_fns.get((owner, leaf))
        return None
    if kind == "unknown_method":
        return _unique_method(call.target[1], by_fn_name)
    return None


#: Method names shared with builtin containers/files: a ``.get()`` on
#: an untyped receiver is far more likely dict.get than SomeClass.get,
#: so these never resolve through the unique-name fallback.
_GENERIC_METHODS = frozenset({
    "get", "items", "keys", "values", "copy", "sort", "index", "count",
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "add", "discard", "split", "strip", "join",
    "format", "encode", "decode", "read", "write", "flush", "close",
    "start", "put", "set",
})


def _unique_method(name, by_fn_name):
    """Fallback: resolve by method name when the program has exactly
    one non-dunder method with that name (generic container-style
    names excluded — see :data:`_GENERIC_METHODS`)."""
    if name.startswith("__") or name in _GENERIC_METHODS:
        return None
    matches = [f for f in by_fn_name.get(name, ()) if f.cls is not None]
    if len(matches) == 1:
        return matches[0]
    return None


def transitive_acquisitions(modules, indexes) -> dict:
    """Fixpoint: function qualname -> frozenset of lock nodes the
    function may acquire (directly or via resolved calls), *entered
    with no locks held*."""
    direct = {}
    fn_of = {}
    mod_of = {}
    for mod in modules:
        for fn in mod.all_functions():
            direct[fn.qualname] = {a.lock for a in fn.acquires}
            direct[fn.qualname].update(
                op.lock for op in fn.raw_lock_ops if op.op == "acquire"
            )
            fn_of[fn.qualname] = fn
            mod_of[fn.qualname] = mod

    resolved_calls = {
        qualname: [
            target.qualname
            for call in fn_of[qualname].calls
            if (target := resolve_call(
                call, fn_of[qualname], mod_of[qualname], indexes,
            )) is not None
        ]
        for qualname in fn_of
    }
    acq = {q: set(locks) for q, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for qualname, callees in resolved_calls.items():
            bucket = acq[qualname]
            before = len(bucket)
            for callee in callees:
                bucket |= acq.get(callee, set())
            if len(bucket) != before:
                changed = True
    return {q: frozenset(locks) for q, locks in acq.items()}


def build_lock_graph(modules) -> LockOrderGraph:
    indexes = _build_indexes(modules)
    acq = transitive_acquisitions(modules, indexes)
    graph = LockOrderGraph()
    for mod in modules:
        for decl in mod.locks.values():
            graph.add_node(decl.node)
        for cls in mod.classes.values():
            for decl in cls.locks.values():
                graph.add_node(decl.node)
        for fn in mod.all_functions():
            for event in fn.acquires:
                # Factory / `# holds:` locks exist only as acquisition
                # events; give them a node even when never nested.
                graph.add_node(event.lock)
                for held in sorted(event.held_before):
                    graph.add_edge(
                        held, event.lock, fn.qualname, event.file,
                        event.line, "nested-with",
                    )
            for call in fn.calls:
                if not call.held:
                    continue
                target = resolve_call(call, fn, mod, indexes)
                if target is None:
                    continue
                for inner in sorted(acq.get(target.qualname, ())):
                    for held in sorted(call.held):
                        graph.add_edge(
                            held, inner, fn.qualname, call.file,
                            call.line, f"call {call.repr}",
                        )
    return graph


def check_lock_order(graph: LockOrderGraph) -> list:
    """One ``lock-order-cycle`` violation per elementary cycle."""
    violations = []
    for cycle in graph.cycles():
        witness = graph.witness(cycle)
        steps = "; ".join(
            f"{src} -> {dst} at {fn_name.rsplit('.', 1)[-1]}:{line}"
            for (src, dst, fn_name, _file, line) in witness
        )
        anchor = witness[0]
        violations.append(Violation(
            rule=LOCK_ORDER_CYCLE,
            module=anchor[3].rsplit("/", 1)[-1].rsplit(".", 1)[0],
            function=anchor[2],
            subject="->".join(sorted(cycle)),
            message=(
                f"lock-order cycle {' -> '.join(cycle + [cycle[0]])} "
                f"(witness: {steps})"
            ),
            file=anchor[3], line=anchor[4],
        ))
    return violations
