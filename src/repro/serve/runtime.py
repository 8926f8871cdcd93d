"""The serving runtime: request streams over a pool of simulated MCUs.

:class:`ServeRuntime` wires the subsystem together: a verified
:class:`~repro.serve.registry.ModelArtifact` is replicated onto
``n_devices`` simulated boards; requests enter through admission control
into one shared policy-ordered queue; devices take batches and retry
brown-outs on healthy devices with capped exponential backoff.  Kernels
have static control flow, so every attempt's place on the simulated
timeline is known before it runs.  A batch is therefore served in two
steps: each attempt is placed on the device's timeline — sheds,
brown-outs and invalid inputs are settled there — and the placed
attempts then run in one ``DeployedModel.infer_batch`` call (fused on
``"fastpath-v2"``, row by row on the other engines).
Every offered request ends in exactly one terminal outcome — completed,
rejected, or failed — so the conservation law

    completed + rejected + failed == offered

holds under any fault plan; tests assert it.

Execution model: one discrete-event loop on the simulated clock
(:meth:`ServeRuntime.advance_to`).  It repeatedly starts the device that
can begin a batch soonest — at ``max(device clock, earliest eligibility
of a request it may serve)``, ties broken by device id — so which
device serves which request, and when, is a pure function of the trace
and the configuration.  No worker threads exist: ``submit()`` advances
the loop to the request's arrival before deciding admission, and
``drain()`` runs it to the end.  All *reported times are simulated
milliseconds*: a request's latency is its completion time minus its
trace arrival time.

Concurrency: ``submit()`` may be called from many producer threads.
One lock per runtime serializes them and the event loop they drive.
The runtime owns its metrics registry and span collector, which hold
no locks of their own: every access to them happens under the runtime
lock, and the concurrency analyzer checks that.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.annotations import guarded_by
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeviceBrownoutError,
    InvalidInputError,
    ServeError,
)
from repro.mcu.fastpath import DEFAULT_ENGINE, ENGINES
from repro.mcu.intermittent import PowerBudget
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import Gauge, Histogram, MetricsRegistry
from repro.serve.pool import Attempt, SimulatedDevice, build_pool
from repro.serve.registry import ModelArtifact
from repro.serve.request import (
    COMPLETED,
    FAILED,
    REJECTED,
    InferenceRequest,
    ServeOutcome,
)
from repro.serve.scheduler import BoundedRequestQueue
from repro.serve.tracing import Span, TraceCollector


@dataclass(frozen=True)
class ServeConfig:
    """Tunable knobs of the runtime."""

    n_devices: int = 4
    policy: str = "fifo"               # "fifo" | "edf"
    max_queue_depth: int = 64
    max_batch: int = 4
    #: Retries after the first attempt; attempt count is capped at
    #: ``max_retries + 1`` before the request fails terminally.
    max_retries: int = 2
    backoff_base_ms: float = 2.0
    backoff_cap_ms: float = 50.0
    #: Sim-time load shedding: reject a first-attempt request whose queue
    #: wait (device start − arrival, simulated ms) exceeds this bound.
    #: The depth bound caps how many requests wait at once; this bound
    #: caps how long each waits, which is what keeps *simulated* tail
    #: latency finite under sustained open-loop overload.
    max_queue_wait_ms: float | None = None
    power_budget: PowerBudget | None = None
    fault_plan: FaultPlan | None = None
    #: Execution engine for every device replica: ``"fastpath-v2"``
    #: (content-specialized + batch-fused dispatch, default),
    #: ``"fastpath"`` (tier-1 translating engine, row by row), or
    #: ``"interpreter"`` (reference CPU).
    engine: str = DEFAULT_ENGINE
    #: Track namespace stamped on every span (``"fleet-0"``), so multiple
    #: runtimes tracing in one process export distinguishable tracks.
    trace_namespace: str | None = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ConfigurationError("need at least one device")
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINES}"
            )


@dataclass(frozen=True)
class ServeReport:
    """End-of-replay summary in simulated time."""

    offered: int
    completed: int
    rejected: int
    failed: int
    makespan_ms: float
    throughput_rps: float              # completed per simulated second
    latency_ms: dict[str, float]       # count/mean/min/max/p50/p95/p99
    queue_ms: dict[str, float]
    device_utilization: dict[str, float]
    metrics: dict[str, Any]            # full MetricsRegistry snapshot
    engine: str = DEFAULT_ENGINE       # execution engine the fleet ran on
    outcomes: tuple[ServeOutcome, ...] = field(repr=False, default=())
    #: Raw per-device busy time — what utilization is computed from, and
    #: what the trace invariant ``busy_ms == Σ busy spans`` checks.
    device_busy_ms: dict[str, float] = field(default_factory=dict)
    #: The replay's span collector.
    trace: TraceCollector = field(repr=False, default_factory=TraceCollector)

    @property
    def conserved(self) -> bool:
        return self.completed + self.rejected + self.failed == self.offered

    def format(self) -> str:
        lines = [
            f"offered {self.offered}  completed {self.completed}  "
            f"rejected {self.rejected}  failed {self.failed}",
            f"makespan {self.makespan_ms:.1f} sim-ms  "
            f"throughput {self.throughput_rps:.1f} req/sim-s",
            f"latency sim-ms  p50 {self.latency_ms['p50']:.2f}  "
            f"p95 {self.latency_ms['p95']:.2f}  "
            f"p99 {self.latency_ms['p99']:.2f}  "
            f"mean {self.latency_ms['mean']:.2f}",
            f"queue wait sim-ms  p50 {self.queue_ms['p50']:.2f}  "
            f"p95 {self.queue_ms['p95']:.2f}",
        ]
        for name, value in sorted(self.device_utilization.items()):
            lines.append(f"{name} utilization {value * 100:5.1f}%")
        return "\n".join(lines)


class ServeRuntime:
    """Multi-device inference server over one registered model."""

    def __init__(
        self,
        artifact: ModelArtifact,
        config: ServeConfig | None = None,
    ) -> None:
        self.artifact = artifact
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()  # guarded_by: _lock
        # Tracing is always on: the collector is bounded, so long
        # replays degrade to dropped spans rather than unbounded memory.
        self.tracer = TraceCollector(  # guarded_by: _lock
            namespace=self.config.trace_namespace
        )
        injector = (
            FaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None else None
        )
        self.devices: list[SimulatedDevice] = build_pool(
            artifact,
            self.config.n_devices,
            tracer=self.tracer,
            power_budget=self.config.power_budget,
            injector=injector,
            engine=self.config.engine,
        )
        self.metrics.label("engine", self.config.engine)
        self._depth_gauge: Gauge = self.metrics.gauge("queue.depth")
        self.queue = BoundedRequestQueue(
            policy=self.config.policy,
            max_depth=self.config.max_queue_depth,
            n_devices=self.config.n_devices,
        )
        # The one runtime lock: `submit()` may be called from many
        # producer threads, and each call drives the event loop.
        self._lock = threading.Lock()
        self._outcomes: list[ServeOutcome] = []  # guarded_by: _lock
        self._offered = 0  # guarded_by: _lock
        self._last_arrival_ms = 0.0  # guarded_by: _lock
        self._started = False  # guarded_by: _lock

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._started = True

    def drain(self) -> None:
        """Stop admissions and serve everything queued to completion."""
        with self._lock:
            self.queue.close()
            self._advance(math.inf)
            self._started = False

    def __enter__(self) -> "ServeRuntime":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    # -- producer API ----------------------------------------------------

    def submit(self, request: InferenceRequest) -> bool:
        """Offer one request; returns False when admission shed it.

        The event loop first advances to the request's arrival, so
        admission sees the queue depth at that simulated instant — and
        the request is queued before any device starts a batch at it.
        """
        with self._lock:
            if not self._started:
                raise ServeError(
                    "runtime not started (use start() or `with`)"
                )
            self._offered += 1
            self._last_arrival_ms = max(self._last_arrival_ms,
                                        request.arrival_ms)
            self._advance(request.arrival_ms)
            self.metrics.counter("requests.offered").inc()
            try:
                self.queue.offer(request)
            except AdmissionError as exc:
                self._shed(request, exc.reason, request.arrival_ms,
                           attempts=request.attempts)
                return False
            self._span(request, "admitted", request.arrival_ms)
            self._depth_gauge.set(self.queue.depth)
            return True

    def replay(self, trace: list[InferenceRequest]) -> ServeReport:
        """Open-loop replay: offer the whole trace, drain, report."""
        self.start()
        for request in trace:
            self.submit(request)
        self.drain()
        return self.report()

    def advance_to(self, t_ms: float) -> None:
        """Run every batch that starts before simulated time ``t_ms``."""
        with self._lock:
            self._advance(t_ms)

    # -- the event loop --------------------------------------------------

    @guarded_by("_lock")
    def _advance(self, until_ms: float) -> None:
        """Start batches, soonest device first, until none starts
        before ``until_ms``."""
        while True:
            ready = self.queue.ready_ms()
            start, device_id = min(
                (max(device.clock_ms, ready[device.device_id]),
                 device.device_id)
                for device in self.devices
            )
            if start >= until_ms:
                return
            self._dispatch(self.devices[device_id], start)

    @guarded_by("_lock")
    def _dispatch(self, device: SimulatedDevice, start_ms: float) -> None:
        """One batch on ``device``, starting at simulated ``start_ms``."""
        batch = self.queue.take_batch(
            device.device_id, self.config.max_batch, start_ms
        )
        device.begin_dispatch(start_ms)
        self.metrics.counter("batches.dispatched").inc()
        self.metrics.histogram("batch_size").observe(len(batch))
        # Step 1: place each attempt on the timeline, request by request.
        attempts = []
        for request in batch:
            start = device.next_start_ms(request)
            if self._preflight(device, request, start):
                attempts.append(device.place(request))
        # Step 2: run the placed attempts in one device call.
        if device.run(attempts):
            self.metrics.counter("batches.fused").inc()
        for attempt in attempts:
            self._settle(device, attempt)
        self._depth_gauge.set(self.queue.depth)

    @guarded_by("_lock")
    def _preflight(
        self,
        device: SimulatedDevice,
        request: InferenceRequest,
        service_start: float,
    ) -> bool:
        """Shedding decisions for one attempt; True when it should run.

        ``service_start`` is where the attempt would begin serving on
        the device's timeline.
        """
        # The attempt's queueing interval: eligible-to-run until service
        # start.  First attempts become eligible at arrival; retries at
        # the end of their backoff.
        self._span(request, "queued", request.eligible_ms, service_start)
        if (
            request.deadline_ms is not None
            and service_start > request.deadline_ms
        ):
            if request.attempts > 0:
                # A retried request was admitted once, at the door — the
                # scheduler contract says it can never be *rejected*
                # afterwards.  Backoff pushing it past its deadline is a
                # terminal *failure* (mirroring the queue_wait rule that
                # retries are never shed).
                self._fail(device, request, service_start,
                           "deadline_after_retry", "deadline_after_retry")
                self.metrics.counter("failed.deadline_after_retry").inc()
                return False
            # Shedding at dequeue: executing a request that already
            # missed its deadline wastes device time everyone else pays.
            self._shed(request, "deadline", service_start, attempts=1)
            return False
        if (
            self.config.max_queue_wait_ms is not None
            and request.attempts == 0  # retries are never shed
            and service_start - request.arrival_ms
            > self.config.max_queue_wait_ms
        ):
            self._shed(request, "queue_wait", service_start, attempts=1)
            return False
        return True

    @guarded_by("_lock")
    def _settle(self, device: SimulatedDevice, attempt: Attempt) -> None:
        """Record how one placed attempt ended."""
        request, error = attempt.request, attempt.error
        if error is None:
            self._complete(device, attempt)
        elif isinstance(error, DeviceBrownoutError):
            self.metrics.counter("device.brownouts").inc()
            self._retry_or_fail(device, attempt)
        elif isinstance(error, InvalidInputError):
            self._fail(device, request, attempt.start_ms, "invalid_input",
                       f"invalid_input: {error}")
        else:
            # Any other library error is terminal for this request but
            # must never stop the event loop: conservation requires one
            # outcome per offered request.
            self._fail(device, request, attempt.start_ms,
                       type(error).__name__,
                       f"{type(error).__name__}: {error}")

    @guarded_by("_lock")
    def _complete(self, device: SimulatedDevice, attempt: Attempt) -> None:
        """Record one attempt that ran to completion."""
        request = attempt.request
        latency = attempt.end_ms - request.arrival_ms
        queue_wait = attempt.start_ms - request.arrival_ms
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=COMPLETED,
                label=attempt.label,
                device_id=device.device_id,
                cycles=attempt.cycles,
                latency_ms=latency,
                queue_ms=queue_wait,
                attempts=request.attempts + 1,
            )
        )
        self._span(request, "completed", attempt.end_ms)
        self.metrics.counter("requests.completed").inc()
        self.metrics.histogram("latency_ms").observe(latency)
        self.metrics.histogram("queue_ms").observe(queue_wait)
        self.metrics.histogram("cycles").observe(attempt.cycles)

    @guarded_by("_lock")
    def _shed(
        self,
        request: InferenceRequest,
        reason: str,
        at_ms: float,
        *,
        attempts: int,
    ) -> None:
        """Record a REJECTED outcome, its terminal span and counters."""
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=REJECTED,
                attempts=attempts,
                reason=reason,
            )
        )
        self._span(request, "shed", at_ms, detail=reason)
        self.metrics.counter("requests.rejected").inc()
        self.metrics.counter(f"rejected.{reason}").inc()

    @guarded_by("_lock")
    def _fail(
        self,
        device: SimulatedDevice,
        request: InferenceRequest,
        at_ms: float,
        detail: str,
        reason: str,
    ) -> None:
        """Record a FAILED outcome of the current attempt, its terminal
        span and counter."""
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=FAILED,
                device_id=device.device_id,
                attempts=request.attempts + 1,
                reason=reason,
            )
        )
        self._span(request, "failed", at_ms, detail=detail)
        self.metrics.counter("requests.failed").inc()

    @guarded_by("_lock")
    def _retry_or_fail(
        self, device: SimulatedDevice, attempt: Attempt
    ) -> None:
        request = attempt.request
        attempts_done = request.attempts + 1
        if attempts_done > self.config.max_retries:
            self._fail(
                device, request, attempt.end_ms, "retry_cap",
                f"brown-out on every attempt "
                f"({attempts_done} tries, retry cap reached)",
            )
            return
        request.attempts = attempts_done
        request.avoid_device = device.device_id
        backoff = min(
            self.config.backoff_cap_ms,
            self.config.backoff_base_ms * (2 ** (attempts_done - 1)),
        )
        # Causal: the retry waits out its backoff from the brown-out
        # that caused it, so no device can serve it any earlier.
        request.eligible_ms = attempt.end_ms + backoff
        self._span(request, "backoff", attempt.end_ms, request.eligible_ms)
        self.metrics.counter("requests.retries").inc()
        # Already admitted once: retries bypass admission control so no
        # request can be both rejected and failed.
        self.queue.offer(request, force=True)

    # -- reporting -------------------------------------------------------

    @guarded_by("_lock")
    def _span(
        self,
        request: InferenceRequest,
        kind: str,
        start_ms: float,
        end_ms: float | None = None,
        *,
        device_id: int | None = None,
        detail: str | None = None,
    ) -> None:
        """Record one queue-track span for ``request``."""
        self.tracer.record(
            Span(
                kind=kind,
                start_ms=start_ms,
                end_ms=start_ms if end_ms is None else end_ms,
                request_id=request.request_id,
                device_id=device_id,
                attempt=request.attempts + 1,
                detail=detail,
            )
        )

    @guarded_by("_lock")
    def _record(self, outcome: ServeOutcome) -> None:
        self._outcomes.append(outcome)

    @property
    def outcomes(self) -> tuple[ServeOutcome, ...]:
        with self._lock:
            return tuple(self._outcomes)

    def report(self) -> ServeReport:
        with self._lock:
            outcomes = tuple(self._outcomes)
            offered = self._offered
            makespan = max(
                [self._last_arrival_ms]
                + [device.clock_ms for device in self.devices]
            )
            utilization = {
                f"device.{device.device_id}": device.utilization(makespan)
                for device in self.devices
            }
            busy = {
                f"device.{device.device_id}": device.busy_ms
                for device in self.devices
            }
            for name, value in utilization.items():
                self.metrics.gauge(f"{name}.utilization").set(value)
            snapshot = self.metrics.snapshot()
            tracer = self.tracer
        completed = sum(1 for o in outcomes if o.status == COMPLETED)
        rejected = sum(1 for o in outcomes if o.status == REJECTED)
        failed = sum(1 for o in outcomes if o.status == FAILED)
        throughput = (
            completed / (makespan / 1e3) if makespan > 0.0 else 0.0
        )
        return ServeReport(
            offered=offered,
            completed=completed,
            rejected=rejected,
            failed=failed,
            makespan_ms=makespan,
            throughput_rps=throughput,
            latency_ms=snapshot["histograms"].get(
                "latency_ms", Histogram().summary()
            ),
            queue_ms=snapshot["histograms"].get(
                "queue_ms", Histogram().summary()
            ),
            device_utilization=utilization,
            metrics=snapshot,
            engine=self.config.engine,
            outcomes=outcomes,
            device_busy_ms=busy,
            trace=tracer,
        )
