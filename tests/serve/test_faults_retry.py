"""Fault injection, retry-with-backoff, and terminal failure semantics.

Covers the ISSUE-2 satellite: a device that browns out on every attempt
must surface a terminal ``ServeError`` after the retry cap — never hang
— and with fault injection enabled the conservation law
``completed + rejected + failed == offered`` still holds.
"""

import dataclasses

import pytest

from repro.errors import DeviceBrownoutError, ExecutionError, ServeError
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve import (
    COMPLETED,
    FAILED,
    FaultInjector,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    SimulatedDevice,
    TraceCollector,
    synthetic_trace,
)


def _config(**overrides):
    defaults = dict(n_devices=4, max_queue_depth=256,
                    max_queue_wait_ms=None)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestFaultInjector:
    def test_rate_zero_never_fires(self):
        injector = FaultInjector(FaultPlan(brownout_rate=0.0))
        assert not any(injector.should_brownout(0) for _ in range(100))

    def test_rate_one_always_fires_on_faulty_devices(self):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({1}))
        injector = FaultInjector(plan)
        assert not injector.should_brownout(0)
        assert injector.should_brownout(1)

    def test_seeded_draws_are_reproducible(self):
        a = FaultInjector(FaultPlan(brownout_rate=0.5, seed=7))
        b = FaultInjector(FaultPlan(brownout_rate=0.5, seed=7))
        draws_a = [a.should_brownout(0) for _ in range(50)]
        draws_b = [b.should_brownout(0) for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestDeviceBrownout:
    def test_execute_raises_typed_brownout(self, small_artifact,
                                           digits_small):
        device = SimulatedDevice(
            device_id=3, artifact=small_artifact, tracer=TraceCollector(),
            injector=FaultInjector(FaultPlan(brownout_rate=1.0)),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        attempt = device.place(request)
        assert isinstance(attempt.error, DeviceBrownoutError)
        assert attempt.error.device_id == 3
        assert device.brownouts == 1
        assert device.clock_ms > 0.0        # wasted work is charged

    def test_starved_power_budget_browns_out(self, small_artifact,
                                             digits_small):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(
            deployed, small_artifact.board
        ).minimum_charge_cycles()
        device = SimulatedDevice(
            device_id=0, artifact=small_artifact, tracer=TraceCollector(),
            power_budget=PowerBudget(max(1, minimum // 2)),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        attempt = device.place(request)
        assert isinstance(attempt.error, DeviceBrownoutError)

    def test_sufficient_power_budget_completes(self, small_artifact,
                                               digits_small):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(
            deployed, small_artifact.board
        ).minimum_charge_cycles()
        device = SimulatedDevice(
            device_id=0, artifact=small_artifact, tracer=TraceCollector(),
            power_budget=PowerBudget(minimum * 4),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        execution = device.place(request)
        assert execution.error is None
        # Intermittent execution pays checkpoint overhead on top of the
        # plain inference cycles.
        assert execution.cycles > deployed.analytic_opcount().cycles(
            small_artifact.board.costs
        )


class TestDeviceRun:
    """Step 2 of serving a batch: one device call for the placed rows."""

    def _placed(self, artifact, digits, n, engine=None):
        device = SimulatedDevice(
            device_id=0, artifact=artifact, tracer=TraceCollector(),
            engine=engine,
        )
        attempts = [
            device.place(InferenceRequest(
                request_id=i, x=digits.x_test[i], arrival_ms=0.0
            ))
            for i in range(n)
        ]
        return device, attempts

    def test_measured_cycles_must_equal_charged(self, small_artifact,
                                                digits_small):
        device, attempts = self._placed(small_artifact, digits_small, 2)
        device._inference_cycles += 1
        with pytest.raises(ExecutionError, match="timeline charged"):
            device.run(attempts)

    def test_rows_with_different_cycles_fail_the_batch(
        self, small_artifact, digits_small, monkeypatch
    ):
        device, attempts = self._placed(
            small_artifact, digits_small, 3, engine="interpreter"
        )
        assert not device.deployed.infer_batch(
            digits_small.x_test[:2]
        ).fused                              # the row-by-row engine
        infer_row = device.deployed._infer_row
        calls = []

        def drifting(row):
            result = infer_row(row)
            calls.append(row)
            return dataclasses.replace(
                result, cycles=result.cycles + (len(calls) == 2)
            )

        monkeypatch.setattr(device.deployed, "_infer_row", drifting)
        clock = device.clock_ms
        assert device.run(attempts) is False
        for attempt in attempts:
            assert isinstance(attempt.error, ExecutionError)
            assert "row 1 measured" in str(attempt.error)
        assert device.completed == 0
        assert device.clock_ms == clock      # placed time stays charged


class TestRetryOnHealthyDevice:
    def test_single_faulty_device_degrades_gracefully(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        trace = synthetic_trace(
            40, 2000.0, 64, seed=8, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact, _config(n_devices=3, fault_plan=plan)
        )
        report = runtime.replay(trace)
        assert report.conserved
        assert report.completed == 40        # fleet absorbed the faults
        completed_devices = {
            o.device_id for o in report.outcomes if o.status == COMPLETED
        }
        assert 0 not in completed_devices    # never completed on faulty
        retried = [o for o in report.outcomes if o.attempts > 1]
        if retried:                          # device 0 picked work up
            assert report.metrics["counters"]["requests.retries"] > 0

    def test_probabilistic_faults_conserve_requests(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=0.3, seed=11)
        trace = synthetic_trace(
            60, 4000.0, 64, seed=9, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=4, fault_plan=plan, max_retries=3),
        )
        report = runtime.replay(trace)
        assert report.conserved
        assert report.completed + report.failed == 60
        assert report.metrics["counters"]["device.brownouts"] > 0

    def test_backoff_accumulates_on_retries(self, small_artifact,
                                            digits_small):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=2, fault_plan=plan,
                    backoff_base_ms=4.0, backoff_cap_ms=16.0),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        with runtime:
            runtime.submit(request)
        outcome = runtime.report().outcomes[0]
        assert outcome.status == COMPLETED
        if outcome.attempts > 1:             # retried off the faulty board
            assert request.eligible_ms >= 4.0

    def test_backoff_starts_at_the_brownout(self, small_artifact,
                                            digits_small):
        # Retries are causal: a retry becomes eligible one backoff after
        # the brown-out that caused it, however late that brown-out
        # lands behind a burst — never at arrival + backoff, which may
        # lie before the brown-out itself.
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        config = _config(n_devices=2, fault_plan=plan)
        burst = [
            InferenceRequest(request_id=i, x=digits_small.x_test[i],
                             arrival_ms=0.0)
            for i in range(32)
        ]
        report = ServeRuntime(small_artifact, config).replay(burst)
        assert report.completed == 32
        spans = report.trace.spans()
        brownout_end = {
            (s.request_id, s.attempt): s.end_ms
            for s in spans if s.kind == "retry"
        }
        backoffs = [s for s in spans if s.kind == "backoff"]
        assert len(backoffs) == len(brownout_end) > 0
        assert max(brownout_end.values()) > config.backoff_base_ms
        for span in backoffs:
            failed_attempt = span.attempt - 1
            assert span.start_ms == \
                brownout_end[(span.request_id, failed_attempt)]
            assert span.duration_ms == pytest.approx(min(
                config.backoff_cap_ms,
                config.backoff_base_ms * 2 ** (failed_attempt - 1),
            ))


class TestTerminalFailure:
    """Brown-out on every attempt → typed terminal error, no hang."""

    def test_all_faulty_fleet_fails_after_retry_cap(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=1.0)   # every device, every try
        trace = synthetic_trace(
            10, 1000.0, 64, seed=10, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=2, fault_plan=plan, max_retries=2),
        )
        report = runtime.replay(trace)        # must terminate
        assert report.conserved
        assert report.failed == 10 and report.completed == 0
        for outcome in report.outcomes:
            assert outcome.status == FAILED
            assert outcome.attempts == 3      # initial + max_retries
            assert "retry cap" in outcome.reason
            with pytest.raises(ServeError):
                outcome.raise_for_status()

    def test_starved_intermittent_fleet_fails_terminally(
        self, small_artifact, digits_small
    ):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(
            deployed, small_artifact.board
        ).minimum_charge_cycles()
        runtime = ServeRuntime(
            small_artifact,
            _config(
                n_devices=2,
                power_budget=PowerBudget(max(1, minimum // 2)),
                max_retries=1,
            ),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        with runtime:
            runtime.submit(request)
        outcome = runtime.report().outcomes[0]
        assert outcome.status == FAILED
        assert outcome.attempts == 2
        with pytest.raises(ServeError):
            outcome.raise_for_status()
