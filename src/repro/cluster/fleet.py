"""One fleet of the cluster: a chain of runtime generations.

A :class:`Fleet` is one shard of the cluster — a
:class:`~repro.serve.runtime.ServeRuntime` (device pool + queue + event
loop) behind a stable identity (``fleet-0``).  The runtime itself is
replaceable: a blue/green deploy swaps in a freshly warmed *generation*
and drains the old one, so the fleet's identity (and its place in the
router's hash ring) outlives any single model version.

Zero-downtime cutover (:meth:`begin_generation`, then
:meth:`retire_generation`):

1. build + start the green runtime (replicas flashed from the registry
   artifact, translations already warm — no producer ever waits on
   codegen);
2. swap the fleet's generation pointer — new submits land on green;
3. drain blue: its event loop runs to the end, serving the queued
   backlog to completion on blue's own devices, and the terminal report
   is archived on the fleet.

A fleet holds no lock.  Its :class:`~repro.cluster.cluster.Cluster`
drives every method under the cluster's one lock, so a swap is atomic
with respect to every submit: no submit can still be offering to blue
when it drains, and a rolling deploy sheds nothing and loses nothing —
the cluster invariants assert exactly that.
"""

from __future__ import annotations

import dataclasses

from repro.serve.metrics import RateView
from repro.serve.pool import service_ms_per_request
from repro.serve.registry import ModelArtifact, ModelRegistry
from repro.serve.request import InferenceRequest
from repro.serve.runtime import ServeConfig, ServeReport, ServeRuntime

#: Fleet lifecycle states.
ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"
FLEET_STATES = (ACTIVE, DRAINING, RETIRED)


def generation_namespace(fleet: str, generation: int) -> str:
    """The trace namespace a fleet stamps on a generation's spans."""
    return fleet if generation == 0 else f"{fleet}.g{generation}"


@dataclasses.dataclass(frozen=True)
class FleetSignals:
    """One control-tick reading of a fleet's live, measured signals.

    These are the autoscaler's and router's inputs: windowed rates from
    :class:`~repro.serve.metrics.RateView` samples, utilization from
    busy-time deltas, and the queue-wait estimate the deadline-aware
    router scores fleets by.  All *measured* on-fleet quantities, not
    proxies.
    """

    fleet: str
    state: str
    offered_per_s: float
    shed_per_s: float
    shed_fraction: float          # windowed shed rate / offered rate
    utilization: float            # windowed busy fraction across devices
    queue_depth: int
    est_queue_wait_ms: float      # depth x service time / devices


class FleetGeneration:
    """One runtime generation (blue or green) of a fleet."""

    def __init__(
        self,
        index: int,
        artifact: ModelArtifact,
        runtime: ServeRuntime,
        window_ms: float,
    ) -> None:
        self.index = index
        self.artifact = artifact
        self.runtime = runtime
        self.offered_rate: RateView = runtime.metrics.rate_view(
            "requests.offered", window_ms
        )
        self.rejected_rate: RateView = runtime.metrics.rate_view(
            "requests.rejected", window_ms
        )
        self._window_ms = window_ms
        self._busy_samples: list[tuple[float, float]] = []
        #: Per-request service time for queue-wait scoring.
        self.service_ms = service_ms_per_request(
            artifact, runtime.config.max_batch
        )

    def sample(self, now_ms: float) -> None:
        """Advance every windowed signal to simulated time ``now_ms``."""
        self.offered_rate.sample(now_ms)
        self.rejected_rate.sample(now_ms)
        busy = sum(d.busy_ms for d in self.runtime.devices)
        samples = self._busy_samples
        samples.append((now_ms, busy))
        cutoff = now_ms - self._window_ms
        while len(samples) > 2 and samples[1][0] <= cutoff:
            samples.pop(0)

    def utilization(self) -> float:
        """Windowed busy fraction across this generation's devices."""
        samples = self._busy_samples
        if len(samples) < 2:
            return 0.0
        (t0, b0), (t1, b1) = samples[0], samples[-1]
        if t1 <= t0:
            return 0.0
        n = len(self.runtime.devices)
        return min(1.0, (b1 - b0) / ((t1 - t0) * n))

    def queue_depth(self) -> int:
        return self.runtime.queue.depth

    def est_queue_wait_ms(self) -> float:
        """Backlog-based wait estimate: depth x service / devices."""
        n = max(1, len(self.runtime.devices))
        return self.queue_depth() * self.service_ms / n


class Fleet:
    """One sharded fleet: generations of a serve runtime behind one id."""

    def __init__(
        self,
        fleet_id: int,
        artifact: ModelArtifact,
        config: ServeConfig,
        *,
        registry: ModelRegistry | None = None,
        sanitizer=None,
        signal_window_ms: float = 250.0,
    ) -> None:
        self.fleet_id = fleet_id
        self.name = f"fleet-{fleet_id}"
        self.config = config
        self.signal_window_ms = signal_window_ms
        self.state = ACTIVE
        self._registry = registry
        self._sanitizer = sanitizer
        self._gen_count = 0
        self._retired: list[tuple[int, str, ServeReport]] = []
        self._gen: FleetGeneration | None = self._build_generation(artifact)

    # -- generation lifecycle --------------------------------------------

    def _build_generation(self, artifact: ModelArtifact) -> FleetGeneration:
        index = self._gen_count
        self._gen_count += 1
        config = dataclasses.replace(
            self.config,
            trace_namespace=generation_namespace(self.name, index),
        )
        runtime = ServeRuntime(artifact, config)
        if self._sanitizer is not None:
            from repro.analysis.concurrency import instrument_runtime

            instrument_runtime(runtime, self._sanitizer)
        if self._registry is not None:
            self._registry.acquire(artifact.model_id)
        runtime.start()
        return FleetGeneration(
            index, artifact, runtime, self.signal_window_ms
        )

    def begin_generation(
        self, artifact: ModelArtifact
    ) -> FleetGeneration | None:
        """Cut over to a warm runtime for ``artifact``; return the old.

        New submits land on the new generation from here on.  The
        caller owns draining the returned generation via
        :meth:`retire_generation`.
        """
        old, self._gen = self._gen, self._build_generation(artifact)
        return old

    def retire_generation(self, gen: FleetGeneration) -> ServeReport:
        """Drain a swapped-out generation; archive and return its report."""
        gen.runtime.drain()
        report = gen.runtime.report()
        self._retired.append((gen.index, gen.artifact.model_id, report))
        if self._registry is not None:
            self._registry.release(gen.artifact.model_id)
        return report

    def shutdown(self) -> None:
        """Retire the live generation (scale-down / cluster drain)."""
        old, self._gen = self._gen, None
        if old is not None:
            self.retire_generation(old)
        self.state = RETIRED

    # -- data plane ------------------------------------------------------

    def submit(self, request: InferenceRequest) -> bool | None:
        """Offer one request to the live generation.

        Returns the runtime's admission verdict (``True`` admitted,
        ``False`` shed at the door), or ``None`` when the fleet has no
        live generation — the request was *not* offered anywhere.
        """
        if self._gen is None:
            return None
        return self._gen.runtime.submit(request)

    def advance_to(self, t_ms: float) -> None:
        """Run the live generation's event loop up to simulated ``t_ms``."""
        if self._gen is not None:
            self._gen.runtime.advance_to(t_ms)

    # -- signals ---------------------------------------------------------

    def _current(self) -> FleetGeneration | None:
        return self._gen

    @property
    def generation(self) -> int | None:
        """Index of the live generation (None once shut down)."""
        gen = self._gen
        return gen.index if gen is not None else None

    @property
    def model_id(self) -> str | None:
        gen = self._gen
        return gen.artifact.model_id if gen is not None else None

    def sample(self, now_ms: float) -> None:
        if self._gen is not None:
            self._gen.sample(now_ms)

    def signals(self) -> FleetSignals:
        gen = self._gen
        if gen is None:
            return FleetSignals(
                fleet=self.name, state=self.state, offered_per_s=0.0,
                shed_per_s=0.0, shed_fraction=0.0, utilization=0.0,
                queue_depth=0, est_queue_wait_ms=0.0,
            )
        offered = gen.offered_rate.rate_per_s()
        shed = gen.rejected_rate.rate_per_s()
        return FleetSignals(
            fleet=self.name,
            state=self.state,
            offered_per_s=offered,
            shed_per_s=shed,
            shed_fraction=shed / offered if offered > 0.0 else 0.0,
            utilization=gen.utilization(),
            queue_depth=gen.queue_depth(),
            est_queue_wait_ms=gen.est_queue_wait_ms(),
        )

    def est_queue_wait_ms(self) -> float:
        """Estimated queue wait for a new arrival."""
        gen = self._gen
        return gen.est_queue_wait_ms() if gen is not None else float("inf")

    def service_ms(self) -> float:
        """Per-request service time on the live generation's boards."""
        gen = self._gen
        return gen.service_ms if gen is not None else float("inf")

    def queue_depth(self) -> int:
        gen = self._gen
        return gen.queue_depth() if gen is not None else 0

    # -- reporting -------------------------------------------------------

    def generation_reports(self) -> list[tuple[int, str, ServeReport]]:
        """(generation, model_id, report) for every *retired* generation.

        The live generation (if any) is not included — drain the fleet
        first; the cluster's ``report()`` does.
        """
        return list(self._retired)
