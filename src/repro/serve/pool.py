"""Simulated device pool: N boards flashed from one verified artifact.

Each :class:`SimulatedDevice` owns a full replica of the deployed model
(its own RAM, CPU, and TIM2 timer — see
:meth:`~repro.serve.registry.ModelArtifact.replica`) plus a simulated
clock in milliseconds.  The clock advances by the model's constant
cycles per inference, converted at the board's frequency, and every
batch's measured cycles are checked against them, so latency and
utilization are reported in the same simulated-time domain as every
other number in this repository.

A device is only ever driven by its runtime's event loop, under the
runtime's lock, so its own mutable state needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    DeviceBrownoutError,
    ExecutionError,
    InvalidInputError,
    ReproError,
)
from repro.mcu.board import BoardProfile
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve.faults import BROWNOUT_WASTE_FRACTION, FaultInjector
from repro.serve.registry import ModelArtifact
from repro.serve.request import InferenceRequest
from repro.serve.tracing import Span, TraceCollector

#: Fixed per-dispatch cost (host link interrupt + input DMA setup),
#: charged once per *batch* — the cycles batching amortizes.
DISPATCH_OVERHEAD_CYCLES = 2_000


def service_ms_per_request(artifact: ModelArtifact, max_batch: int) -> float:
    """Simulated device time per request when batches are full.

    One inference plus a ``1/max_batch`` share of the per-batch dispatch
    overhead, both at the artifact's board clock.
    """
    overhead_ms = artifact.board.cycles_to_ms(DISPATCH_OVERHEAD_CYCLES)
    return artifact.deployment.latency_ms + overhead_ms / max_batch


def fleet_capacity_rps(
    artifact: ModelArtifact, n_devices: int, max_batch: int = 4
) -> float:
    """Ideal service rate of ``n_devices`` boards, requests per
    simulated second (``max_batch`` defaults to ``ServeConfig``'s)."""
    return n_devices * 1e3 / service_ms_per_request(artifact, max_batch)


@dataclass
class Attempt:
    """One attempt of a request, placed on a device's simulated timeline.

    ``error`` is what settled an attempt that did not run: a
    :class:`~repro.errors.DeviceBrownoutError` (device time wasted up to
    ``end_ms``), an :class:`~repro.errors.InvalidInputError` (no device
    time), or the error the batch's device call raised.  An attempt
    that ran carries its ``label``.
    """

    request: InferenceRequest
    start_ms: float
    end_ms: float
    cycles: int = 0
    label: int | None = None
    error: ReproError | None = None
    #: The validated input row, for :meth:`SimulatedDevice.run`.
    row: np.ndarray | None = field(default=None, repr=False)


class SimulatedDevice:
    """One board of the fleet, with its own replica and sim clock."""

    def __init__(
        self,
        device_id: int,
        artifact: ModelArtifact,
        *,
        tracer: TraceCollector,
        power_budget: PowerBudget | None = None,
        injector: FaultInjector | None = None,
        engine: str | None = None,
    ) -> None:
        self.device_id = device_id
        self.board: BoardProfile = artifact.board
        self.deployed = artifact.replica(engine=engine)
        self.injector = injector
        self.tracer = tracer
        self.power_budget = power_budget
        # Kernels have static control flow, so every inference costs the
        # same cycles — and so does its charge schedule under a power
        # budget.  Both are known before anything runs.
        self._inference_cycles = self.deployed.analytic_opcount().cycles(
            self.board.costs
        )
        self._charge_cycles = self._inference_cycles
        self._starved: ExecutionError | None = None
        if power_budget is not None:
            try:
                self._charge_cycles = IntermittentDeployment(
                    self.deployed, self.board
                ).schedule(power_budget).total_cycles
            except ExecutionError as exc:
                # Budget below the minimum viable charge: the device can
                # never finish this model.
                self._starved = exc
        # -- simulated-time accounting (written by the runtime's event
        #    loop only) -------------------------------------------------
        self.clock_ms = 0.0
        self.busy_ms = 0.0
        self.completed = 0
        self.brownouts = 0
        self.dispatches = 0

    def _emit(
        self,
        kind: str,
        start_ms: float,
        end_ms: float,
        request: InferenceRequest | None = None,
        detail: str | None = None,
    ) -> None:
        self.tracer.record(
            Span(
                kind=kind,
                start_ms=start_ms,
                end_ms=end_ms,
                request_id=(
                    request.request_id if request is not None else None
                ),
                device_id=self.device_id,
                attempt=(request.attempts + 1) if request is not None else 0,
                detail=detail,
            )
        )

    def begin_dispatch(self, earliest_start_ms: float = 0.0) -> None:
        """Charge the fixed per-batch dispatch overhead.

        The overhead lands on the *post-idle-jump* timeline: an idle
        device first jumps forward to the earliest start of the batch it
        is about to serve (it cannot begin the host-link transfer before
        any request in the batch is eligible), then pays the overhead as
        genuinely busy time.  Charging it before the jump — the pre-fix
        behaviour — let the idle gap absorb the overhead while it was
        still counted as busy, overstating utilization and understating
        the first request's queue wait.
        """
        self.dispatches += 1
        overhead_ms = self.board.cycles_to_ms(DISPATCH_OVERHEAD_CYCLES)
        start = max(self.clock_ms, earliest_start_ms)
        self.clock_ms = start + overhead_ms
        self.busy_ms += overhead_ms
        self._emit("dispatch_overhead", start, self.clock_ms)

    def next_start_ms(self, request: InferenceRequest) -> float:
        """Where ``request`` would start on this device's timeline: not
        before the device is free, nor before the request is eligible."""
        return max(self.clock_ms, request.eligible_ms)

    def place(self, request: InferenceRequest) -> Attempt:
        """Step 1 of serving a batch: put one attempt on the timeline.

        Settles, in order, a brown-out draw, the power budget and the
        input; an attempt that will run advances the clock by the
        model's constant cycles.  Nothing runs yet — see :meth:`run`.
        """
        start = self.next_start_ms(request)
        if self.injector and self.injector.should_brownout(self.device_id):
            return self._brownout(
                request, start,
                self.board.cycles_to_ms(self._inference_cycles)
                * BROWNOUT_WASTE_FRACTION,
                "brownout", "lost power mid-request "
                f"{request.request_id}",
            )
        if self._starved is not None:
            return self._brownout(
                request, start,
                self.board.cycles_to_ms(self.power_budget.cycles_per_charge),
                "budget_brownout", f"browned out: {self._starved}",
            )
        try:
            row = self.deployed.validate_input(request.x)
        except InvalidInputError as exc:
            return Attempt(request, start, start, error=exc)
        exec_ms = self.board.cycles_to_ms(self._charge_cycles)
        self.clock_ms = start + exec_ms
        self.busy_ms += exec_ms
        self._emit("execute", start, self.clock_ms, request)
        return Attempt(request, start, self.clock_ms,
                       cycles=self._charge_cycles, row=row)

    def run(self, attempts: list[Attempt]) -> bool:
        """Step 2: run the placed attempts that settled nothing in one
        :meth:`~repro.deploy.artifact.DeployedModel.infer_batch` call.

        Fills in their labels and returns whether the call was fused.
        Measured cycles that differ from the charged ones are a hard
        error: the timeline would be wrong.
        """
        placed = [a for a in attempts if a.error is None]
        if not placed:
            return False
        try:
            # Every row passed validate_input in place(): skip re-checks.
            result = self.deployed._infer_rows(
                np.stack([a.row for a in placed])
            )
        except ReproError as exc:
            # Never stop the event loop.  The call ran no row to a
            # result, so every placed attempt fails with its error; the
            # time place() charged them stays on the timeline.
            for attempt in placed:
                attempt.error = exc
            return False
        if result.cycles_per_inference != self._inference_cycles:
            raise ExecutionError(
                f"device {self.device_id} measured "
                f"{result.cycles_per_inference} cycles per inference but "
                f"the timeline charged {self._inference_cycles}"
            )
        for attempt, label in zip(placed, result.labels):
            attempt.label = int(label)
        self.completed += len(placed)
        return result.fused

    def _brownout(
        self,
        request: InferenceRequest,
        start: float,
        waste_ms: float,
        detail: str,
        message: str,
    ) -> Attempt:
        self.clock_ms = start + waste_ms
        self.busy_ms += waste_ms
        self.brownouts += 1
        self._emit("retry", start, self.clock_ms, request, detail=detail)
        return Attempt(
            request, start, self.clock_ms,
            error=DeviceBrownoutError(
                f"device {self.device_id} {message}",
                device_id=self.device_id,
            ),
        )

    def utilization(self, horizon_ms: float) -> float:
        """Busy fraction of the fleet-wide simulated horizon."""
        if horizon_ms <= 0.0:
            return 0.0
        return min(1.0, self.busy_ms / horizon_ms)


def build_pool(
    artifact: ModelArtifact,
    n_devices: int,
    *,
    tracer: TraceCollector,
    power_budget: PowerBudget | None = None,
    injector: FaultInjector | None = None,
    engine: str | None = None,
) -> list[SimulatedDevice]:
    """Flash ``n_devices`` replicas of one verified artifact."""
    return [
        SimulatedDevice(
            device_id=i,
            artifact=artifact,
            tracer=tracer,
            power_budget=power_budget,
            injector=injector,
            engine=engine,
        )
        for i in range(n_devices)
    ]
