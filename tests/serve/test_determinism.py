"""Replay determinism: a replay is a pure function of trace and config.

The runtime is one discrete-event loop on the simulated clock, so which
device serves which request, and when, cannot depend on host thread
scheduling.  Replaying one trace twice on each engine — clean, and with
a seeded brown-out fault plan — must give identical outcomes, spans,
per-device busy time and metrics.  Engines are bit-exact, so the runs
must also agree *across* engines: the same outcomes and spans (as
multisets — fastpath-v2 records a fused batch's spans batch-wise rather
than request by request), the same busy time, and the same metrics
except the ``engine`` label and the fused-batch counter.
"""

import dataclasses
from collections import Counter

import pytest

from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServeRuntime,
    fleet_capacity_rps,
    synthetic_trace,
)

ENGINES = ("interpreter", "fastpath", "fastpath-v2")
FAULT_PLANS = {
    "clean": None,
    "brownouts": FaultPlan(brownout_rate=0.2, seed=11),
}


def _replay(artifact, inputs, engine, fault_plan):
    config = ServeConfig(
        n_devices=3, policy="edf", max_batch=4, max_queue_depth=16,
        max_queue_wait_ms=6.0, fault_plan=fault_plan, engine=engine,
    )
    # A fresh trace per replay: the runtime owns the requests' retry
    # state, so a replayed request object would not start clean.
    trace = synthetic_trace(
        150, 1.5 * fleet_capacity_rps(artifact, 3), 64, seed=71,
        deadline_ms=8.0, inputs=inputs,
    )
    return ServeRuntime(artifact, config).replay(trace)


def _engine_free(report):
    """The report minus what may legitimately differ between engines."""
    metrics = dict(report.metrics)
    metrics["labels"] = {
        k: v for k, v in metrics["labels"].items() if k != "engine"
    }
    metrics["counters"] = {
        k: v for k, v in metrics["counters"].items()
        if k != "batches.fused"
    }
    return (Counter(report.outcomes), Counter(report.trace.spans()),
            report.device_busy_ms, metrics)


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_replays_identical_across_runs_and_engines(small_artifact,
                                                   digits_small, plan):
    runs = {
        (engine, attempt): _replay(small_artifact, digits_small.x_test,
                                   engine, FAULT_PLANS[plan])
        for engine in ENGINES
        for attempt in (0, 1)
    }
    for engine in ENGINES:
        first, second = runs[(engine, 0)], runs[(engine, 1)]
        assert dataclasses.replace(first, trace=None) == \
            dataclasses.replace(second, trace=None), engine
        assert first.trace.spans() == second.trace.spans(), engine
    reference = _engine_free(runs[("interpreter", 0)])
    for engine in ENGINES[1:]:
        assert _engine_free(runs[(engine, 0)]) == reference, engine
    # The scenario exercises what it claims to pin down.
    sample = runs[("fastpath-v2", 0)]
    counters = sample.metrics["counters"]
    assert sample.rejected > 0
    assert counters["batches.dispatched"] < sample.offered
    if plan == "clean":
        assert counters.get("batches.fused", 0) > 0
    else:
        assert counters.get("requests.retries", 0) > 0
