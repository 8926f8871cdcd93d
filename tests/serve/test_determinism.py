"""Replay determinism: a replay is a pure function of trace and config.

The runtime is one discrete-event loop on the simulated clock, so which
device serves which request, and when, cannot depend on host thread
scheduling.  Replaying one trace twice on each engine — clean, with a
seeded brown-out fault plan, under an ample and a starved power budget,
each with and without invalid input rows — must give identical
outcomes, spans, per-device busy time and metrics.  Engines are
bit-exact, so the runs must also agree *across* engines: the same
outcomes and spans (as multisets), the same busy time, and the same
metrics except the ``engine`` label and the fused-batch counter.

Every engine serves a batch the same way — placed on the timeline
first, then run in one device call — so ``fastpath-v2`` fuses batches
under fault plans and power budgets too.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServeRuntime,
    fleet_capacity_rps,
    synthetic_trace,
)

ENGINES = ("interpreter", "fastpath", "fastpath-v2")
PLANS = ("clean", "brownouts", "budget", "starved")
#: Each plan, and each plan that runs anything with every 17th input
#: row replaced by NaNs.
SCENARIOS = PLANS + tuple(f"{p}+invalid" for p in PLANS if p != "starved")


def _overrides(artifact, plan):
    if plan == "brownouts":
        return {"fault_plan": FaultPlan(brownout_rate=0.2, seed=11)}
    if plan in ("budget", "starved"):
        minimum = IntermittentDeployment(
            artifact.replica(), artifact.board
        ).minimum_charge_cycles()
        charge = minimum * 4 if plan == "budget" else minimum // 2
        return {"power_budget": PowerBudget(charge)}
    return {}


def _replay(artifact, inputs, engine, plan, invalid):
    config = ServeConfig(
        n_devices=3, policy="edf", max_batch=4, max_queue_depth=16,
        max_queue_wait_ms=6.0, engine=engine,
        **_overrides(artifact, plan),
    )
    # A fresh trace per replay: the runtime owns the requests' retry
    # state, so a replayed request object would not start clean.
    trace = synthetic_trace(
        150, 1.5 * fleet_capacity_rps(artifact, 3), 64, seed=71,
        deadline_ms=8.0, inputs=inputs,
    )
    if invalid:
        for request in trace[16::17]:
            request.x = np.full_like(request.x, np.nan)
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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_replays_identical_across_runs_and_engines(small_artifact,
                                                   digits_small, scenario):
    plan, _, invalid = scenario.partition("+")
    runs = {
        (engine, attempt): _replay(small_artifact, digits_small.x_test,
                                   engine, plan, bool(invalid))
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
    failures = Counter(
        o.reason.split(":")[0] for o in sample.outcomes
        if o.status == "failed"
    )
    assert (failures["invalid_input"] > 0) == bool(invalid)
    if plan == "starved":
        # A charge too small for any layer: nothing ever completes.
        assert sample.completed == 0
        assert counters.get("batches.fused", 0) == 0
    else:
        assert sample.completed > 0
        assert counters.get("batches.fused", 0) > 0
    if plan in ("brownouts", "starved"):
        assert counters.get("requests.retries", 0) > 0
    for engine in ENGINES[:2]:
        counters = runs[(engine, 0)].metrics["counters"]
        assert counters.get("batches.fused", 0) == 0, engine
