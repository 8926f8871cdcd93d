"""The cluster: N fleets behind a router, scaled and deployed live.

:class:`Cluster` composes the whole tentpole: a set of
:class:`~repro.cluster.fleet.Fleet` shards (each its own
:class:`~repro.serve.runtime.ServeRuntime` with its own device pool), a
:class:`~repro.cluster.router.Router` choosing a shard per request, an
optional :class:`~repro.cluster.autoscaler.Autoscaler` adding/removing
shards from live windowed signals, and at most one active
:class:`~repro.cluster.deploy.Deployer` rolling a new model version
across shards with zero lost requests.

Everything runs on the simulated clock.  Advancing the cluster to time
``t`` runs every control tick at a ``tick_ms`` boundary ``<= t``, in
order — before each tick every fleet's event loop is advanced to that
boundary — and then advances the fleets to ``t``.  A control tick
samples fleet signals, advances any rolling deploy, then lets the
autoscaler act.  Deploys freeze the autoscaler — resizing the fleet set
mid-rollout would make "which fleets run the new model" moot.

:meth:`Cluster.submit` advances to the request's arrival, then routes
and offers it, and records the request id — the ledger
:func:`~repro.cluster.invariants.verify_cluster_invariants` checks to
prove no request was lost.  Submits may come from many producer
threads: one cluster lock serializes them with the control ticks they
drive, so generation swaps are atomic with respect to every submit.
The router and fleets hold no locks.  Under the cluster lock sit only
each runtime's lock and the model registry's lock, neither nested in
the other; the strict
:class:`~repro.analysis.concurrency.LockOrderSanitizer` checks that
order in the soak harness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.autoscaler import (
    SCALE_UP,
    Autoscaler,
    AutoscalerConfig,
)
from repro.cluster.deploy import DONE, Deployer, DeployEvent, SLOPolicy
from repro.analysis.annotations import guarded_by
from repro.cluster.fleet import ACTIVE, DRAINING, Fleet
from repro.cluster.router import ROUTER_POLICIES, Router
from repro.errors import ConfigurationError, ServeError
from repro.serve.metrics import summarize
from repro.serve.registry import ModelArtifact
from repro.serve.request import COMPLETED, InferenceRequest
from repro.serve.runtime import ServeConfig, ServeReport
from repro.serve.tracing import merged_chrome_trace


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the cluster and its control loop."""

    n_fleets: int = 2
    serve: ServeConfig = field(default_factory=ServeConfig)
    router_policy: str = "hash"
    router_seed: int = 0
    autoscaler: AutoscalerConfig | None = None   # None: fixed size
    #: Control-loop period on the simulated clock.
    tick_ms: float = 50.0
    #: Window for the fleets' rate/utilization signals.
    signal_window_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.n_fleets < 1:
            raise ConfigurationError("n_fleets must be >= 1")
        if self.router_policy not in ROUTER_POLICIES:
            raise ConfigurationError(
                f"unknown router policy {self.router_policy!r}; "
                f"known: {ROUTER_POLICIES}"
            )
        if self.tick_ms <= 0 or self.signal_window_ms <= 0:
            raise ConfigurationError(
                "tick_ms and signal_window_ms must be > 0"
            )


@dataclass(frozen=True)
class GenerationReport:
    """One retired generation's terminal serve report, cluster-labelled."""

    fleet: str
    generation: int
    model_id: str
    report: ServeReport


@dataclass(frozen=True)
class ClusterReport:
    """Terminal accounting of one cluster run, across every generation."""

    submitted: int                 # unique requests offered via submit()
    offered: int                   # sum of per-generation offered
    completed: int
    rejected: int
    failed: int
    makespan_ms: float
    goodput_rps: float             # completed per simulated second
    latency_ms: dict[str, float]   # exact percentiles, merged outcomes
    generations: tuple[GenerationReport, ...]
    deploy_events: tuple[DeployEvent, ...] = ()
    scale_decisions: tuple[Any, ...] = ()
    router_policy: str = "hash"

    @property
    def conserved(self) -> bool:
        return self.completed + self.rejected + self.failed == self.offered

    def format(self) -> str:
        lines = [
            f"cluster: {len({g.fleet for g in self.generations})} "
            f"fleet(s), {len(self.generations)} generation(s), "
            f"router={self.router_policy}",
            f"requests: submitted {self.submitted}  "
            f"offered {self.offered}  completed {self.completed}  "
            f"rejected {self.rejected}  failed {self.failed}",
            f"goodput {self.goodput_rps:.1f} req/sim-s over "
            f"{self.makespan_ms:.1f} sim-ms",
            f"latency sim-ms  p50 {self.latency_ms['p50']:.2f}  "
            f"p95 {self.latency_ms['p95']:.2f}  "
            f"p99 {self.latency_ms['p99']:.2f}",
        ]
        for event in self.deploy_events:
            lines.append(
                f"deploy @{event.time_ms:.0f}ms {event.kind} "
                f"{event.fleet or '-'} {event.detail}"
            )
        return "\n".join(lines)


class Cluster:
    """N fleets, one router, a control loop, and rolling deploys."""

    def __init__(
        self,
        artifact: ModelArtifact | Sequence[ModelArtifact],
        config: ClusterConfig | None = None,
        *,
        registry=None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.registry = registry
        self.router = Router(  # guarded_by: _lock
            self.config.router_policy, seed=self.config.router_seed
        )
        self.autoscaler = (
            Autoscaler(self.config.autoscaler)
            if self.config.autoscaler is not None else None
        )
        # Models new fleets flash.  A single artifact builds a
        # homogeneous cluster; a sequence builds a *heterogeneous* one —
        # fleet i flashes artifacts[i % len] (e.g. the same model
        # deployed on different board profiles behind one router, which
        # then routes on each fleet's own per-board latency signals).
        if isinstance(artifact, ModelArtifact):
            self._artifacts: tuple[ModelArtifact, ...] = (artifact,)
        else:
            self._artifacts = tuple(artifact)
            if not self._artifacts:
                raise ServeError("cluster needs at least one artifact")
        self._lock = threading.Lock()
        self._fleets: list[Fleet] = []          # guarded_by: _lock
        self._retired_fleets: list[Fleet] = []  # guarded_by: _lock
        self._next_fleet_id = 0                 # guarded_by: _lock
        self._submitted_ids: list[int] = []     # guarded_by: _lock
        self._ticks_run = 0                     # guarded_by: _lock
        self._deployer: Deployer | None = None  # guarded_by: _lock
        self._deploy_history: list[Deployer] = []  # guarded_by: _lock
        self._pending_deploys: list[
            tuple[float, ModelArtifact, SLOPolicy | None]
        ] = []                                   # guarded_by: _lock
        self._sanitizer = None       # set by instrument_cluster pre-start
        self._started = False                    # guarded_by: _lock

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Build and start the initial fleets.

        Deferred out of ``__init__`` so a sanitizer can be attached
        first (``instrument_cluster``) and every lock in every fleet is
        wrapped from birth.
        """
        with self._lock:
            if self._started:
                raise ServeError("cluster already started")
            self._started = True
            for _ in range(self.config.n_fleets):
                self._add_fleet()

    def __enter__(self) -> "Cluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    @guarded_by("_lock")
    def _add_fleet(self) -> Fleet:
        fleet_id = self._next_fleet_id
        self._next_fleet_id += 1
        fleet = Fleet(
            fleet_id,
            self._artifacts[fleet_id % len(self._artifacts)],
            self.config.serve,
            registry=self.registry,
            sanitizer=self._sanitizer,
            signal_window_ms=self.config.signal_window_ms,
        )
        self._fleets.append(fleet)
        return fleet

    @guarded_by("_lock")
    def _remove_fleet(self, fleet: Fleet) -> None:
        """Scale-down: stop routing to the fleet, then drain it."""
        fleet.state = DRAINING       # router skips it from here on
        fleet.shutdown()             # drains the backlog to completion
        self._fleets.remove(fleet)
        self._retired_fleets.append(fleet)

    def drain(self) -> None:
        """Finish any rolling deploy, then retire every fleet."""
        with self._lock:
            self._finish_deploys()
            while self._fleets:
                self._remove_fleet(self._fleets[0])

    # -- introspection ---------------------------------------------------

    @property
    def fleets(self) -> list[Fleet]:
        """Live fleet membership (a snapshot)."""
        with self._lock:
            return list(self._fleets)

    # -- data plane ------------------------------------------------------

    def submit(self, request: InferenceRequest) -> bool:
        """Advance to the arrival, then route and offer one request;
        True admitted, False shed."""
        with self._lock:
            if not self._started:
                raise ServeError("cluster not started; call start()")
            self._advance(request.arrival_ms)
            fleet = self.router.route(request, self._fleets)
            verdict = fleet.submit(request)
            self._submitted_ids.append(request.request_id)
            return verdict

    # -- the simulated clock ---------------------------------------------

    @guarded_by("_lock")
    def _advance(self, t_ms: float) -> None:
        """Run every control tick due by simulated ``t_ms``, then
        advance every fleet to ``t_ms``."""
        while (self._ticks_run + 1) * self.config.tick_ms <= t_ms:
            self._ticks_run += 1
            now = self._ticks_run * self.config.tick_ms
            for fleet in self._fleets:
                fleet.advance_to(now)
            self._tick(now)
        for fleet in self._fleets:
            fleet.advance_to(t_ms)

    @guarded_by("_lock")
    def _tick(self, now_ms: float) -> None:
        """One control-loop step at simulated time ``now_ms``."""
        for fleet in self._fleets:
            fleet.sample(now_ms)
        self._maybe_start_deploy(now_ms)
        if self._deployer is not None and self._deployer.active:
            self._deployer.tick(now_ms)
            if not self._deployer.active and self._deployer.state == DONE:
                # Promotion: future fleets (scale-ups) flash the target.
                # A rolling deploy re-homogenizes the cluster — every
                # fleet now runs the target, so scale-ups must too.
                self._artifacts = (self._deployer.target,)
            return                   # autoscaler frozen during deploys
        if self.autoscaler is None:
            return
        decision = self.autoscaler.decide(
            now_ms, [f.signals() for f in self._fleets]
        )
        if decision is None:
            return
        if decision.action == SCALE_UP:
            self._add_fleet()
        else:
            victim = max(
                (f for f in self._fleets if f.state == ACTIVE),
                key=lambda f: f.fleet_id,
                default=None,
            )
            if victim is not None and len(self._fleets) > 1:
                self._remove_fleet(victim)

    def schedule_deploy(
        self,
        artifact: ModelArtifact,
        at_ms: float,
        slo: SLOPolicy | None = None,
    ) -> None:
        """Queue a rolling deploy to fire at simulated time ``at_ms``."""
        with self._lock:
            self._pending_deploys.append((at_ms, artifact, slo))
            self._pending_deploys.sort(key=lambda entry: entry[0])

    @guarded_by("_lock")
    def _maybe_start_deploy(self, now_ms: float) -> None:
        if self._deployer is not None and self._deployer.active:
            return
        if not self._pending_deploys:
            return
        at_ms, artifact, slo = self._pending_deploys[0]
        if now_ms < at_ms:
            return
        self._pending_deploys.pop(0)
        self._deployer = Deployer(self._fleets, artifact, slo=slo)
        self._deploy_history.append(self._deployer)

    @guarded_by("_lock")
    def _finish_deploys(self) -> None:
        """Tick on until every pending and active deploy is terminal."""
        while self._pending_deploys or (
            self._deployer is not None and self._deployer.active
        ):
            self._advance((self._ticks_run + 1) * self.config.tick_ms)

    # -- replay ----------------------------------------------------------

    def replay(self, trace: list[InferenceRequest]) -> ClusterReport:
        """Open-loop replay: submit the whole trace, drain, report."""
        for request in trace:
            self.submit(request)
        self.drain()
        return self.report()

    # -- reporting -------------------------------------------------------

    def _all_fleets(self) -> list[Fleet]:
        with self._lock:
            return list(self._fleets) + list(self._retired_fleets)

    def generation_reports(self) -> list[GenerationReport]:
        reports = []
        for fleet in self._all_fleets():
            for index, model_id, report in fleet.generation_reports():
                reports.append(GenerationReport(
                    fleet=fleet.name, generation=index,
                    model_id=model_id, report=report,
                ))
        return reports

    @property
    def submitted_ids(self) -> list[int]:
        with self._lock:
            return list(self._submitted_ids)

    def deploy_events(self) -> list[DeployEvent]:
        with self._lock:
            return [
                event
                for deployer in self._deploy_history
                for event in deployer.events
            ]

    def report(self) -> ClusterReport:
        """Terminal cluster accounting; call after :meth:`drain`."""
        generations = tuple(self.generation_reports())
        offered = sum(g.report.offered for g in generations)
        completed = sum(g.report.completed for g in generations)
        rejected = sum(g.report.rejected for g in generations)
        failed = sum(g.report.failed for g in generations)
        makespan = max(
            (g.report.makespan_ms for g in generations), default=0.0
        )
        latencies = [
            outcome.latency_ms
            for g in generations
            for outcome in g.report.outcomes
            if outcome.status == COMPLETED
        ]
        return ClusterReport(
            submitted=len(self.submitted_ids),
            offered=offered,
            completed=completed,
            rejected=rejected,
            failed=failed,
            makespan_ms=makespan,
            goodput_rps=(
                completed / (makespan / 1e3) if makespan > 0 else 0.0
            ),
            latency_ms=summarize(latencies),
            generations=generations,
            deploy_events=tuple(self.deploy_events()),
            scale_decisions=tuple(
                self.autoscaler.decisions
                if self.autoscaler is not None else ()
            ),
            router_policy=self.config.router_policy,
        )

    def chrome_trace(
        self, labels: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Merged Chrome trace: one process per generation's collector."""
        collectors = [g.report.trace for g in self.generation_reports()]
        return merged_chrome_trace(collectors, labels)
