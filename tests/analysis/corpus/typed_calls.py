"""Calls the lock-order graph must resolve through declared types.

``touch`` exists on two classes, so the unique-method-name fallback
cannot resolve it: each ``Outer*._lock -> Leaf._lock`` edge exists only
if the analyzer follows the receiver's declared type.
"""

import threading


class Leaf:
    def __init__(self):
        self._lock = threading.Lock()

    def touch(self):
        with self._lock:
            pass


class Decoy:
    def touch(self):
        pass


class Holder:
    def __init__(self, leaf: Leaf):
        self.leaf = leaf                 # type from the parameter


class OuterChain:
    def __init__(self, holder: Holder):
        self._lock = threading.Lock()
        self.holder = holder

    def run(self):
        with self._lock:
            self.holder.leaf.touch()     # attribute chain


class OuterLoop:
    def __init__(self):
        self._lock = threading.Lock()
        self.leaves: list[Leaf] = []

    def run(self):
        with self._lock:
            for leaf in self.leaves:     # loop over a typed attribute
                leaf.touch()


class OuterLocal:
    def __init__(self):
        self._lock = threading.Lock()

    def run(self, pick):
        with self._lock:
            leaf: Leaf = pick()          # annotated local
            leaf.touch()


class OuterUntyped:
    def __init__(self):
        self._lock = threading.Lock()

    def run(self, pick):
        with self._lock:
            thing = pick()               # no type: stays unresolved
            thing.touch()
