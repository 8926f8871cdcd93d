"""Request scheduling: the bounded policy heap the event loop serves.

The queue is plain data.  It holds no lock of its own: the owning
:class:`~repro.serve.runtime.ServeRuntime` guards it with the runtime's
one lock, and its event loop decides *when* a device takes a batch —
the queue only answers *which* requests that batch holds.

- **Bounded depth + admission control** — `offer()` sheds load with a
  typed :class:`~repro.errors.AdmissionError` when the queue is full
  instead of queueing without bound (an open-loop arrival process would
  otherwise grow the queue — and tail latency — indefinitely).  Retries
  of already-admitted requests re-enter with ``force=True``; admission
  is decided once per request, at the door.
- **Policies** — ``"fifo"`` serves in arrival order; ``"edf"``
  (earliest deadline first) orders by absolute deadline, deadline-less
  requests last.  Both are heaps over a policy-specific key with a
  monotonic sequence number as the tiebreaker, so equal keys still
  serve in arrival order.
- **Eligibility** — a request may not start before its
  ``eligible_ms`` (arrival, or the end of its retry backoff).
  `ready_ms()` tells the event loop when each device could next start;
  `take_batch()` hands over up to ``max_batch`` requests eligible at
  the start time, in policy order.
- **Brown-out affinity** — a retried request remembers the device that
  failed it (``avoid_device``); neither `ready_ms()` nor `take_batch()`
  offers it to that device, so the retry lands on a healthy board
  (ignored for single-device pools, where there is no healthier board
  to prefer).
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.errors import AdmissionError, ConfigurationError
from repro.serve.request import InferenceRequest

SCHEDULING_POLICIES = ("fifo", "edf")


def _policy_key(policy: str, request: InferenceRequest) -> tuple:
    if policy == "fifo":
        return (request.seq,)
    # EDF: earliest absolute deadline first; best-effort requests last.
    deadline = (
        request.deadline_ms if request.deadline_ms is not None
        else float("inf")
    )
    return (deadline, request.seq)


class BoundedRequestQueue:
    """Policy-ordered, depth-bounded request heap."""

    def __init__(
        self,
        policy: str = "fifo",
        max_depth: int = 64,
        n_devices: int = 1,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {SCHEDULING_POLICIES}"
            )
        if max_depth <= 0:
            raise ConfigurationError("queue depth must be positive")
        self.policy = policy
        self.max_depth = max_depth
        self.n_devices = n_devices
        self._heap: list[tuple[tuple, int, InferenceRequest]] = []
        self._closed = False
        self._seq = itertools.count()

    def offer(self, request: InferenceRequest, *, force: bool = False) -> None:
        """Admit a request, or shed it with a typed rejection.

        ``force`` bypasses the depth bound (and the closed check) for
        requests that were already admitted once — retries must never be
        re-subjected to admission control or they could be lost.
        """
        if not force:
            if self._closed:
                raise AdmissionError(
                    "runtime is draining; request not admitted",
                    reason="draining",
                )
            if len(self._heap) >= self.max_depth:
                raise AdmissionError(
                    f"queue full ({self.max_depth} pending); "
                    f"request {request.request_id} shed",
                    reason="queue_full",
                )
        request.seq = next(self._seq)
        heapq.heappush(
            self._heap,
            (_policy_key(self.policy, request), request.seq, request),
        )

    def close(self) -> None:
        """Stop external admissions (retries are still accepted)."""
        self._closed = True

    def _avoids(self, request: InferenceRequest, device_id: int) -> bool:
        return self.n_devices > 1 and request.avoid_device == device_id

    def ready_ms(self) -> list[float]:
        """Per device id, the earliest eligibility of any pending request
        that device may serve (``inf`` when there is none)."""
        free = math.inf
        avoiding: dict[int, float] = {}
        for _key, _seq, request in self._heap:
            ready = request.eligible_ms
            avoid = request.avoid_device if self.n_devices > 1 else None
            if avoid is None:
                free = min(free, ready)
            else:
                avoiding[avoid] = min(avoiding.get(avoid, math.inf), ready)
        return [
            min([free] + [t for a, t in avoiding.items() if a != device])
            for device in range(self.n_devices)
        ]

    def take_batch(
        self, device_id: int, max_batch: int, now_ms: float = math.inf
    ) -> list[InferenceRequest]:
        """Pop up to ``max_batch`` requests, in policy order, that
        ``device_id`` may serve and that are eligible at ``now_ms``."""
        batch, skipped = [], []
        while self._heap and len(batch) < max_batch:
            entry = heapq.heappop(self._heap)
            request = entry[2]
            if (
                request.eligible_ms > now_ms
                or self._avoids(request, device_id)
            ):
                skipped.append(entry)
            else:
                batch.append(request)
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return batch

    @property
    def depth(self) -> int:
        return len(self._heap)
