"""Cluster replay determinism: routing, control ticks, autoscaling and
rolling deploys all run on the simulated clock, so two replays of one
trace produce the same :class:`ClusterReport` — deploy timeline and
scale decisions included."""

import dataclasses

from repro.cluster import (
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    SLOPolicy,
    verify_cluster_invariants,
)
from repro.serve import ServeConfig, synthetic_trace


def _replay(base, target, registry, inputs):
    cluster = Cluster(base, ClusterConfig(
        n_fleets=1,
        serve=ServeConfig(n_devices=2, max_queue_depth=16),
        router_policy="least-queue-wait",
        tick_ms=1.0,
        signal_window_ms=4.0,
        autoscaler=AutoscalerConfig(
            min_fleets=1, max_fleets=3, up_ticks=2,
            up_shed_fraction=0.02, cooldown_ms=2.0,
        ),
    ), registry=registry)
    cluster.start()
    cluster.schedule_deploy(
        target, 8.0,
        slo=SLOPolicy(min_probe_completed=3, probe_ms=20.0),
    )
    trace = synthetic_trace(300, 30_000.0, 64, seed=83, inputs=inputs)
    report = cluster.replay(trace)
    assert not verify_cluster_invariants(report, cluster.submitted_ids)
    return report


def _comparable(report):
    """The report with each generation's span collector (compared by
    identity) swapped for its spans."""
    generations = tuple(
        (dataclasses.replace(g, report=dataclasses.replace(
            g.report, trace=None)), g.report.trace.spans())
        for g in report.generations
    )
    return dataclasses.replace(report, generations=()), generations


def test_replay_twice_gives_identical_cluster_report(
    base_artifact, good_artifact, cluster_registry, digits_small,
):
    first, second = (
        _replay(base_artifact, good_artifact, cluster_registry,
                digits_small.x_test)
        for _ in range(2)
    )
    assert first.scale_decisions, "scenario should autoscale"
    assert any(e.kind == "cutover" for e in first.deploy_events)
    assert first.deploy_events == second.deploy_events
    assert first.scale_decisions == second.scale_decisions
    assert _comparable(first) == _comparable(second)
