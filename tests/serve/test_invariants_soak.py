"""Invariant soak: trace-derived runtime invariants under hostile load.

The ISSUE-4 harness: replay overload traces with multi-threaded
producers, EDF + deadlines, brown-out fault plans, and retries, and
assert on *every* run the invariants the tracer makes checkable:

- conservation: ``completed + rejected + failed == offered``;
- every offered request has exactly one terminal span;
- per-device spans are non-overlapping and monotone;
- no queue wait is negative;
- ``busy_ms`` equals the summed durations of execute/overhead/retry
  spans;
- utilization is within [0, 1].

Every replay additionally runs under the strict runtime lock-order
sanitizer (the ``lock_sanitizer`` fixture): the runtime lock is
swapped for an instrumented wrapper that asserts the statically derived
acquisition order.  The static graph has no serve edges, so any nesting
fails the test at teardown.

The regression classes at the bottom pin the concrete accounting and
concurrency bugs the harness was built to expose; each fails on the
pre-fix runtime.
"""

import dis
import sys
import threading
import time

import pytest

from repro.analysis.concurrency import instrument_runtime
from repro.serve import (
    DISPATCH_OVERHEAD_CYCLES,
    FAILED,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    SimulatedDevice,
    TraceCollector,
    fleet_capacity_rps,
    synthetic_trace,
    verify_trace_invariants,
)


def _assert_invariants(report):
    violations = verify_trace_invariants(report)
    assert not violations, "\n".join(violations)


SCENARIOS = {
    # Underloaded FIFO fleet: the do-no-harm baseline.
    "clean_fifo": dict(
        factor=0.5, config=dict(n_devices=2, max_queue_wait_ms=None),
    ),
    # 3x overload on EDF with tight deadlines: heavy shedding at the
    # door, at dequeue, and on simulated queue wait.
    "overload_edf_deadlines": dict(
        factor=3.0, deadline_ms=6.0,
        config=dict(n_devices=2, policy="edf", max_queue_depth=32,
                    max_queue_wait_ms=15.0),
    ),
    # Probabilistic brown-outs with retries: wasted work, backoff,
    # avoid-device rerouting.
    "faults_retries": dict(
        factor=0.8,
        config=dict(n_devices=3, max_retries=3, max_queue_wait_ms=None,
                    fault_plan=FaultPlan(brownout_rate=0.3, seed=13)),
    ),
    # Everything at once: the ISSUE-4 acceptance replay — overload, EDF,
    # deadlines, brown-outs, retries, and both shed bounds.
    "brownout_edf_overload": dict(
        factor=2.0, deadline_ms=10.0,
        config=dict(n_devices=4, policy="edf", max_queue_depth=48,
                    max_retries=2, max_queue_wait_ms=20.0,
                    fault_plan=FaultPlan(brownout_rate=0.25, seed=7)),
    ),
    # ISSUE-8: fused batch dispatch on the tier-2 engine.  Overload
    # builds real batches; the invariant checks below prove the fused
    # path still stamps one execute span per request and keeps
    # busy_ms == sum of span durations.
    "fused_v2_overload": dict(
        factor=1.5,
        config=dict(n_devices=2, max_batch=16, engine="fastpath-v2"),
    ),
}


class TestSoakScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invariants_hold(self, name, small_artifact, digits_small,
                             lock_sanitizer):
        scenario = SCENARIOS[name]
        config = ServeConfig(**{"max_queue_depth": 256,
                                **scenario["config"]})
        rate = scenario["factor"] * fleet_capacity_rps(
            small_artifact, config.n_devices, config.max_batch
        )
        trace = synthetic_trace(
            120, rate, 64, seed=sum(map(ord, name)) % 1000,
            deadline_ms=scenario.get("deadline_ms"),
            inputs=digits_small.x_test,
        )
        runtime = ServeRuntime(small_artifact, config)
        instrument_runtime(runtime, lock_sanitizer)
        report = runtime.replay(trace)
        assert report.offered == 120
        _assert_invariants(report)
        if config.engine == "fastpath-v2":
            assert report.metrics["counters"].get("batches.fused", 0) > 0

    def test_multi_producer_overload_invariants(self, small_artifact,
                                                digits_small,
                                                lock_sanitizer):
        """Concurrent producers + faults + deadlines, unpaced flood."""
        trace = synthetic_trace(
            160, 4.0 * fleet_capacity_rps(small_artifact, 2), 64, seed=29,
            deadline_ms=12.0, inputs=digits_small.x_test,
        )
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, policy="edf", max_queue_depth=32,
                max_retries=2, max_queue_wait_ms=25.0,
                fault_plan=FaultPlan(brownout_rate=0.2, seed=31),
            ),
        )
        instrument_runtime(runtime, lock_sanitizer)
        n_producers = 4
        with runtime:
            threads = [
                threading.Thread(
                    target=lambda i=i: [
                        runtime.submit(request)
                        for request in trace[i::n_producers]
                    ]
                )
                for i in range(n_producers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        report = runtime.report()
        assert report.offered == 160
        _assert_invariants(report)


class TestConcurrentSubmitAccounting:
    """ISSUE-4 satellite: `submit()` tallies must be lock-protected.

    Pre-fix, ``self._offered += 1`` and the ``_last_arrival_ms`` update
    raced across producer threads, lost updates, and silently broke the
    conservation law.

    CPython only switches threads at bytecode safe points (RESUME and
    backward jumps), and the racy read-modify-write compiles to
    straight-line bytecode — so on today's interpreter the window never
    opens by itself, and naive hammering passes even on broken code.
    The test opens the window deliberately: an opcode-level trace hook
    scoped to ``submit`` frames parks each thread (GIL released) at the
    exact boundary between reading ``_offered`` and storing it back —
    the interleaving a free-threaded build permits natively.  Pre-fix,
    every increment other threads complete during the park is clobbered
    by the stale store.  Post-fix the store happens under the lock, so
    parking there merely serializes producers and every count survives.
    """

    def test_offered_counts_every_concurrent_submit(self, small_artifact,
                                                    digits_small):
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=1, max_queue_depth=2,
                        max_queue_wait_ms=None),
        )
        n_threads, per_thread = 4, 250
        x = digits_small.x_test[0]

        submit_code = ServeRuntime.submit.__code__
        # The opcode event fires *before* the instruction executes, so
        # pausing at STORE_ATTR _offered sits between read and write.
        store_offsets = {
            ins.offset
            for ins in dis.get_instructions(submit_code)
            if ins.opname == "STORE_ATTR" and ins.argval == "_offered"
        }
        assert store_offsets, "submit() no longer stores _offered?"

        def preempt(frame, event, arg):
            if frame.f_code is submit_code:
                frame.f_trace_opcodes = True
                if event == "opcode" and frame.f_lasti in store_offsets:
                    time.sleep(0.0003)
                return preempt
            return None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch at (nearly) every chance
        threading.settrace(preempt)
        try:
            with runtime:
                def produce(worker: int) -> None:
                    for i in range(per_thread):
                        runtime.submit(
                            InferenceRequest(
                                request_id=worker * per_thread + i,
                                x=x,
                                arrival_ms=float(i),
                            )
                        )

                threads = [
                    threading.Thread(target=produce, args=(w,))
                    for w in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            threading.settrace(None)
            sys.setswitchinterval(interval)
        report = runtime.report()
        assert report.offered == n_threads * per_thread
        assert report.conserved
        assert report.metrics["counters"]["requests.offered"] \
            == n_threads * per_thread


class TestDispatchOverheadAccounting:
    """ISSUE-4 satellite: overhead is charged on the post-jump timeline.

    Pre-fix, ``begin_dispatch`` advanced the clock *before* the idle
    jump in ``execute``, so an idle device absorbed the overhead into
    the idle gap while still counting it as busy time.
    """

    def test_idle_device_overhead_not_absorbed(self, small_artifact,
                                               digits_small):
        device = SimulatedDevice(device_id=0, artifact=small_artifact,
                                 tracer=TraceCollector())
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=100.0
        )
        overhead_ms = small_artifact.board.cycles_to_ms(
            DISPATCH_OVERHEAD_CYCLES
        )
        device.begin_dispatch(request.eligible_ms)
        # The idle jump happens first; only then is overhead charged.
        assert device.clock_ms == pytest.approx(100.0 + overhead_ms)
        execution = device.place(request)
        assert execution.start_ms == pytest.approx(100.0 + overhead_ms)
        # Busy time equals occupied timeline: nothing busy inside the
        # idle gap [0, 100).
        assert device.busy_ms == pytest.approx(device.clock_ms - 100.0)

    def test_fleet_busy_equals_summed_spans(self, small_artifact,
                                            digits_small):
        # The soak invariant that pins the bug fleet-wide: busy_ms must
        # equal the summed execute/overhead/retry span durations even
        # when devices repeatedly go idle between sparse arrivals.
        trace = synthetic_trace(
            40, 0.3 * fleet_capacity_rps(small_artifact, 2), 64, seed=37,
            inputs=digits_small.x_test,
        )
        report = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=2, max_queue_wait_ms=None),
        ).replay(trace)
        assert report.completed == 40
        _assert_invariants(report)


class TestRetryPastDeadline:
    """ISSUE-4 satellite: a retried request can never be *rejected*.

    Admission is decided once, at the door.  Pre-fix, a brown-out retry
    whose backoff pushed it past its deadline was recorded as REJECTED
    at dequeue, contradicting the scheduler contract.
    """

    def test_retry_past_deadline_fails_not_rejected(self, small_artifact,
                                                    digits_small):
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, max_retries=3, backoff_base_ms=5.0,
                max_queue_wait_ms=None,
                fault_plan=FaultPlan(brownout_rate=1.0),   # every device
            ),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0,
            deadline_ms=1.0,   # < backoff: the retry is born expired
        )
        with runtime:
            runtime.submit(request)
        report = runtime.report()
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.reason == "deadline_after_retry"
        assert outcome.attempts == 2          # first try + expired retry
        counters = report.metrics["counters"]
        assert counters["failed.deadline_after_retry"] == 1
        assert counters.get("rejected.deadline", 0) == 0
        _assert_invariants(report)

    def test_deadline_after_retry_under_fault_plan(self, small_artifact,
                                                   digits_small):
        # Sustained load + tight deadlines + a device that always browns
        # out: the shed/fail split must keep rejected == first-attempt
        # decisions and failed == post-admission outcomes.
        trace = synthetic_trace(
            60, fleet_capacity_rps(small_artifact, 2), 64, seed=41,
            deadline_ms=4.0, inputs=digits_small.x_test,
        )
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, policy="edf", max_retries=2,
                backoff_base_ms=6.0, max_queue_wait_ms=None,
                fault_plan=FaultPlan(
                    brownout_rate=1.0, faulty_devices=frozenset({0})
                ),
            ),
        )
        report = runtime.replay(trace)
        _assert_invariants(report)
        for outcome in report.outcomes:
            if outcome.reason == "deadline_after_retry":
                assert outcome.status == FAILED
                assert outcome.attempts > 1
            if outcome.status == "rejected":
                assert outcome.attempts <= 1
