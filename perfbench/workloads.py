"""The benchmark's four workloads: cold set-up, timed unit, output checks.

Each workload offers

- ``setup(tracer)``: the work a user pays before the timed region, done
  cold (memoized datasets and compiled kernels are forgotten first);
- ``unit(tracer, state)``: one unit of timed work, returned as a
  :class:`Unit` after every output it produced has been checked;
- ``probe(tracer, state, unit)``: traced run only, the per-layer metrics
  that need measurements beyond the unit (engine tiers, a second replay).

Inputs come from the workload seed alone: the pipeline's dataset, the
rows of each ``infer_batch`` call and the arrival traces.  The models the
infer, serve and cluster workloads run are fixed (pinned dataset seed),
so their cycle, flash and accuracy figures do not move between seeds.
Rates, sizes and batch mixes are constants here, never derived from
program output, so a change to the program cannot change what the
benchmark offers it.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    verify_cluster_invariants,
)
from repro.core.neuroc import NeuroCConfig, build_neuroc
from repro.core.zoo import zoo_entry
from repro.datasets import clear_cache, load
from repro.deploy import analytic_model_cycles, deploy
from repro.mcu.fastpath import clear_translation_cache
from repro.nn.optimizers import Adam
from repro.nn.trainer import TrainConfig, Trainer
from repro.quantize.ptq import quantize_model
from repro.serve import (
    COMPLETED,
    ModelRegistry,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
    verify_trace_invariants,
)


class CheckFailed(Exception):
    """An output check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


def expect(ok: bool, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(check, detail)


@dataclass
class Unit:
    """One unit of timed work and what it produced."""

    work_s: float   # host seconds behind the ``work_ref`` metric
    row_s: float    # host seconds per row of bulk inference (``row_ref``)
    rows: int       # inference rows attempted
    exact: dict     # sim_cycles / flash_bytes / device_accuracy
    info: dict = field(default_factory=dict)


def timed(tracer, name, call, *args, request=None, **kwargs):
    """Run ``call`` inside a span; return its result and host seconds."""
    with tracer.span(name, request):
        began = time.perf_counter()
        result = call(*args, **kwargs)
        return result, time.perf_counter() - began


def cold_caches() -> None:
    """Forget memoized datasets and compiled kernels."""
    clear_cache()
    clear_translation_cache()


def train_and_quantize(tracer, config, dataset, epochs, lr):
    """The steps of ``core.neuroc.train_neuroc``, PTQ in its own span.

    Patience equals the epoch budget, so every seed trains exactly
    ``epochs`` epochs: training time does not depend on when a seed's
    validation accuracy happens to stall.
    """
    model = build_neuroc(config)
    x_train, y_train, x_val, y_val = dataset.split_validation(
        seed=config.seed
    )
    trainer = Trainer(
        model, Adam(lr), rng=np.random.default_rng(config.seed + 1)
    )
    schedule = TrainConfig(epochs=epochs, patience=epochs,
                           lr_schedule="cosine")
    history, _ = timed(tracer, "nn.fit", trainer.fit,
                       x_train, y_train, x_val, y_val, schedule)
    quantized, _ = timed(tracer, "quantize.ptq", quantize_model,
                         model, x_train[:512])
    return history, quantized


def expect_cycles(check: str, cycles: int, quantized) -> None:
    analytic = analytic_model_cycles(quantized)
    expect(cycles == analytic, check,
           f"measured {cycles} cycles, analytic {analytic}")


def median_us(samples: list[float], rows: int = 1) -> float:
    return statistics.median(samples) * 1e6 / rows


def tail_us(samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered) * 1e6:.1f} us"
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            value = ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
            return f"{text}, p{pct:g} {value * 1e6:.1f} us, n={n}"
    return f"{text}, n={n} (too few samples for a tail percentile)"


# -- pipeline ----------------------------------------------------------------

class Pipeline:
    """The cold path a researcher pays for one paper model.

    Dataset generation, training, PTQ, deploy with verification and
    on-device accuracy on the default (tier-1) engine.  Everything is
    timed, so set-up is only the import of the stack.
    """

    name = "pipeline"
    zoo_key = "mnist-small"
    n_train, n_test = 800, 150

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer):
        return None

    def unit(self, tracer, state) -> Unit:
        cold_caches()
        entry = zoo_entry(self.zoo_key)
        began = time.perf_counter()
        dataset, _ = timed(tracer, "datasets.load", load, "mnist_like",
                           n_train=self.n_train, n_test=self.n_test,
                           seed=self.seed)
        history, quantized = train_and_quantize(
            tracer, entry.config, dataset, entry.epochs, entry.lr
        )
        deployment, _ = timed(tracer, "deploy.deploy", deploy, quantized)
        predictions, predict_s = timed(tracer, "mcu.predict",
                                       deployment.model.predict,
                                       dataset.x_test)
        work_s = time.perf_counter() - began

        expect(deployment.verified, "pipeline.deploy_verified",
               "deploy() shipped without a passing verification report")
        reference = quantized.predict(dataset.x_test)
        wrong = int((predictions != reference).sum())
        expect(wrong == 0, "pipeline.predictions_match_reference",
               f"{wrong} of {len(reference)} on-device predictions differ "
               "from QuantizedModel.predict")
        cycles = deployment.model.infer(dataset.x_test[0]).cycles
        expect_cycles("pipeline.cycles_match_analytic", cycles, quantized)
        return Unit(
            work_s, row_s=predict_s / len(predictions),
            rows=len(predictions),
            exact={
                "sim_cycles": cycles,
                "flash_bytes": deployment.program_memory.total_bytes,
                "device_accuracy": float(
                    (predictions == dataset.y_test).mean()
                ),
            },
            info={"epochs_run": history.epochs_run,
                  "images": self.n_train + self.n_test},
        )

    def headline(self, units, work_s) -> list[str]:
        return [f"pipeline_s {work_s:.4f} s (dataset generation to "
                f"on-device accuracy, median of {len(units)})"]

    def probe(self, tracer, state, unit) -> dict:
        run = self.name
        gen_s = tracer.total(run, "datasets.load")
        fit_s = tracer.total(run, "nn.fit")
        epochs = unit.info["epochs_run"]
        return {
            "datasets.gen_s": gen_s,
            "datasets.ms_per_image": gen_s * 1e3 / unit.info["images"],
            "nn.fit_s": fit_s,
            "nn.epochs_run": epochs,
            "nn.s_per_epoch": fit_s / epochs,
            "quantize.ptq_s": tracer.total(run, "quantize.ptq"),
            "deploy.deploy_s": tracer.total(run, "deploy.deploy"),
        }


# -- infer -------------------------------------------------------------------

class Infer:
    """Offline tier-2 inference: a seeded stream of ``infer_batch`` calls.

    Batches of 1 and 4 are dominated by tier-2's per-call overhead, batch
    256 by its per-row cost; one pass mixes them in a seeded order.  The
    call counts give each batch size roughly a third of the pass time
    (a batch-256 call costs 1.4-1.9 batch-1 calls), and ``row_s`` is the
    per-row time of the batch-256 calls alone.
    """

    name = "infer"
    zoo_key = "mnist-small"
    n_train, n_test, dataset_seed = 160, 96, 0
    calls_per_pass = {1: 16, 4: 16, 256: 12}
    #: Engine probes of the traced run: calls per tier and batch size.
    probe_b1_calls = {"interpreter": 8, "fastpath": 30}
    probe_v2_calls = {1: 30, 4: 30, 32: 20, 256: 12}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(
            [b for b, n in self.calls_per_pass.items() for _ in range(n)]
        )
        # Rows walk through seeded permutations of the test split, so a
        # pass covers every test row about equally often and its accuracy
        # does not depend on which rows a seed happens to draw.
        rows = np.concatenate([
            rng.permutation(self.n_test)
            for _ in range(-(-int(sizes.sum()) // self.n_test))
        ])
        ends = np.cumsum(sizes)
        self.calls = [rows[end - size:end] for size, end in zip(sizes, ends)]

    def setup(self, tracer):
        cold_caches()
        entry = zoo_entry(self.zoo_key)
        dataset, _ = timed(tracer, "datasets.load", load, "mnist_like",
                           n_train=self.n_train, n_test=self.n_test,
                           seed=self.dataset_seed)
        _, quantized = train_and_quantize(
            tracer, entry.config, dataset, entry.epochs, entry.lr
        )
        deployment, _ = timed(tracer, "deploy.deploy", deploy, quantized,
                              engine="fastpath-v2")
        timed(tracer, "mcu.warm_translations",
              deployment.model.warm_translations)
        return dataset, quantized, deployment

    def _checked_batch(self, tracer, model, quantized, x, request, where):
        result, seconds = timed(tracer, "mcu.infer_batch", model.infer_batch,
                                x, request=request)
        wrong = int((result.logits != quantized.forward(x)).any(axis=1).sum())
        expect(wrong == 0, "infer.logits_match_reference",
               f"{where} call {request}: {wrong} of {len(x)} rows differ "
               "from QuantizedModel.forward")
        expect(result.fused, "infer.batch_fused",
               f"{where} call {request} at batch {len(x)} was not fused")
        return result, seconds

    def unit(self, tracer, state) -> Unit:
        dataset, quantized, deployment = state
        work_s, rows, correct, fused = 0.0, 0, 0, 0
        per_row_s = {b: [] for b in self.calls_per_pass}
        for request, idx in enumerate(self.calls):
            result, seconds = self._checked_batch(
                tracer, deployment.model, quantized, dataset.x_test[idx],
                request, "stream",
            )
            work_s += seconds
            rows += len(idx)
            per_row_s[len(idx)].append(seconds / len(idx))
            correct += int((result.labels == dataset.y_test[idx]).sum())
            fused += result.fused
        expect_cycles("infer.cycles_match_analytic",
                      result.cycles_per_inference, quantized)
        bulk = per_row_s[max(per_row_s)]
        return Unit(
            work_s, row_s=sum(bulk) / len(bulk), rows=rows,
            exact={
                "sim_cycles": result.cycles_per_inference,
                "flash_bytes": deployment.program_memory.total_bytes,
                "device_accuracy": correct / rows,
            },
            info={"per_row_s": per_row_s,
                  "fused_share": fused / len(self.calls)},
        )

    def headline(self, units, work_s) -> list[str]:
        return [
            f"infer_b{batch}_us per row: " + tail_us(
                [s for u in units for s in u.info["per_row_s"][batch]]
            )
            for batch in self.calls_per_pass
        ]

    def probe(self, tracer, state, unit) -> dict:
        dataset, quantized, deployment = state
        model = deployment.model
        x_test = dataset.x_test
        # Cold warm-up per tier: tier 1 alone, then tier 2 on top of it.
        clear_translation_cache()
        model.set_engine("fastpath")
        _, translate_s = timed(tracer, "mcu.warm_translations",
                               model.warm_translations)
        model.set_engine("fastpath-v2")
        _, specialize_s = timed(tracer, "mcu.warm_translations",
                                model.warm_translations)

        b1_us = {}
        for engine, calls in self.probe_b1_calls.items():
            model.set_engine(engine)
            samples = []
            for request in range(calls):
                x = x_test[request % len(x_test)]
                result, seconds = timed(tracer, "mcu.infer", model.infer, x,
                                        request=request)
                expect(np.array_equal(result.logits,
                                      quantized.forward(x[None])[0]),
                       "infer.probe_logits_match_reference",
                       f"{engine} call {request}")
                samples.append(seconds)
            b1_us[engine] = median_us(samples)
        model.set_engine("fastpath-v2")
        v2_us = {}
        for batch, calls in self.probe_v2_calls.items():
            samples = []
            for request in range(calls):
                idx = (np.arange(batch) + request * batch) % len(x_test)
                _, seconds = self._checked_batch(
                    tracer, model, quantized, x_test[idx], request, "probe"
                )
                samples.append(seconds)
            v2_us[batch] = median_us(samples, batch)

        instructions = sum(dataclasses.astuple(model.analytic_opcount()))
        base = b1_us["interpreter"]
        return {
            "mcu.translate_ms": translate_s * 1e3,
            "mcu.specialize_ms": specialize_s * 1e3,
            "mcu.interpreter.b1_us": base,
            "mcu.fastpath.b1_us": b1_us["fastpath"],
            **{f"mcu.fastpath_v2.b{b}_us": us for b, us in v2_us.items()},
            "mcu.fastpath.speedup": base / b1_us["fastpath"],
            "mcu.fastpath_v2.speedup": base / v2_us[1],
            "mcu.fastpath_v2.b256_speedup": base / v2_us[256],
            # instructions per host microsecond = millions per second
            "mcu.interpreter.sim_mips": instructions / base,
            "mcu.fastpath.sim_mips": instructions / b1_us["fastpath"],
            "mcu.fastpath_v2.sim_mips": instructions / v2_us[256],
            "mcu.fused_share": unit.info["fused_share"],
        }


# -- serve and cluster -----------------------------------------------------

#: The ``serve-bench`` model of benchmarks/test_serve_throughput.py.
SERVE_MODEL = NeuroCConfig(n_in=64, n_out=10, hidden=(16,), threshold=0.85,
                           name="serve-bench", seed=0)


def check_outcomes(workload: str, outcomes, rows, dataset, quantized):
    """Every completed request's label and cycles match the reference.

    ``rows[i]`` is the test row request ``i`` carries.  Returns the
    completed requests' accuracy and their (single) cycle charge per
    inference.
    """
    reference = quantized.predict(dataset.x_test)
    analytic = analytic_model_cycles(quantized)
    done = [o for o in outcomes if o.status == COMPLETED]
    wrong = [o.request_id for o in done
             if o.label != reference[rows[o.request_id]]]
    expect(not wrong, f"{workload}.labels_match_reference",
           f"{len(wrong)} requests differ from QuantizedModel.predict, "
           f"first {wrong[:5]}")
    cycles = {o.cycles for o in done}
    expect(cycles == {analytic}, f"{workload}.cycles_match_analytic",
           f"requests charged {sorted(cycles)[:5]}, analytic {analytic}")
    accuracy = sum(
        o.label == dataset.y_test[rows[o.request_id]] for o in done
    ) / len(done)
    return accuracy, analytic


def divergence(first: dict, second: dict) -> float:
    """Share of requests whose simulated latency or device differs."""
    return sum(first[k] != second.get(k) for k in first) / len(first)


class ReplayWorkload:
    """A seeded open-loop trace replayed through the serving stack.

    A unit is one runtime (or cluster) build plus one replay of the
    trace, and ``row_s`` is replay time per request; set-up trains and
    registers the ``serve-bench`` model.
    """

    name = ""
    requests, rate_rps = 1000, 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer):
        cold_caches()
        dataset, _ = timed(tracer, "datasets.load", load, "digits_like",
                           n_train=600, n_test=200, seed=3)
        _, quantized = train_and_quantize(tracer, SERVE_MODEL, dataset,
                                          epochs=10, lr=0.01)
        artifact, _ = timed(tracer, "deploy.register",
                            ModelRegistry().register, quantized)
        return dataset, quantized, artifact

    def _trace(self, dataset, quantized):
        """Poisson arrivals and a test-row order, both from the seed.

        Returns the trace and the test row each request id carries
        (``synthetic_trace`` cycles through the inputs it is given).
        """
        order = np.random.default_rng(self.seed).permutation(
            len(dataset.x_test)
        )
        trace = synthetic_trace(self.requests, self.rate_rps,
                                quantized.n_in, seed=self.seed,
                                inputs=dataset.x_test[order])
        return trace, order[np.arange(self.requests) % len(order)]

    def _replay(self, tracer, state):
        """Build, replay and check; return the report, build and replay
        seconds, the answers' accuracy and the cycles per inference."""
        raise NotImplementedError

    def unit(self, tracer, state) -> Unit:
        report, build_s, replay_s, accuracy, cycles = self._replay(
            tracer, state
        )
        artifact = state[2]
        return Unit(
            build_s + replay_s, row_s=replay_s / self.requests,
            rows=self.requests,
            exact={
                "sim_cycles": cycles,
                "flash_bytes":
                    artifact.deployment.program_memory.total_bytes,
                "device_accuracy": accuracy,
            },
            info={"report": report, "build_s": build_s,
                  "replay_s": replay_s},
        )

    def headline(self, units, work_s) -> list[str]:
        return [f"{self.name}_host_rps {self.requests / work_s:.1f} 1/s "
                "(completed requests per host second of build + replay)"]


class Serve(ReplayWorkload):
    """Paced open-loop ``ServeRuntime.replay`` on ``ServeConfig`` defaults.

    The queue holds the whole trace and nothing sheds on queue wait, so
    every request completes whatever the host speed.
    """

    name = "serve"
    rate_rps = 3000.0

    def _replay(self, tracer, state):
        dataset, quantized, artifact = state
        trace, rows = self._trace(dataset, quantized)
        config = ServeConfig(max_queue_depth=self.requests)
        runtime, build_s = timed(tracer, "serve.build", ServeRuntime,
                                 artifact, config)
        report, replay_s = timed(tracer, "serve.replay", runtime.replay,
                                 trace)
        expect(report.conserved, "serve.conserved",
               f"{report.completed}+{report.rejected}+{report.failed} != "
               f"{report.offered}")
        expect(report.completed == report.offered == self.requests,
               "serve.all_completed",
               f"offered {report.offered} completed {report.completed} "
               f"rejected {report.rejected} failed {report.failed}")
        violations = verify_trace_invariants(report)
        expect(not violations, "serve.trace_invariants",
               "; ".join(violations[:3]))
        accuracy, cycles = check_outcomes("serve", report.outcomes, rows,
                                          dataset, quantized)
        return report, build_s, replay_s, accuracy, cycles

    @staticmethod
    def _placement(report) -> dict:
        return {o.request_id: (o.device_id, o.latency_ms)
                for o in report.outcomes}

    def probe(self, tracer, state, unit) -> dict:
        report = unit.info["report"]
        again = self._replay(tracer, state)[0]
        dataset, _, artifact = state
        replica = artifact.replica()
        samples = [
            timed(tracer, "mcu.infer", replica.infer,
                  dataset.x_test[i % len(dataset.x_test)], request=i)[1]
            for i in range(50)
        ]
        counters = report.metrics["counters"]
        batches = counters.get("batches.dispatched", 0)
        utilization = report.device_utilization.values()
        return {
            "mcu.serve_model.b1_us": median_us(samples),
            "serve.build_s": unit.info["build_s"],
            "serve.replay_s": unit.info["replay_s"],
            "serve.host_s_per_sim_s":
                unit.info["replay_s"] / (report.makespan_ms / 1e3),
            "serve.batches": batches,
            "serve.rows_per_batch": report.completed / batches,
            "serve.fused_batches": counters.get("batches.fused", 0),
            "serve.device_util": sum(utilization) / len(utilization),
            "serve.retries": counters.get("requests.retries", 0),
            "serve.sim_queue_p50_ms": report.queue_ms["p50"],
            "serve.sim_p50_ms": report.latency_ms["p50"],
            "serve.sim_p99_ms": report.latency_ms["p99"],
            "serve.replay_divergence": divergence(
                self._placement(report), self._placement(again)
            ),
        }


class ClusterWorkload(ReplayWorkload):
    """``Cluster.replay`` over 2 fleets x 4 devices behind one router.

    Adds the router, fleet generations and the autoscaler's control loop
    on top of ``serve``'s device workers, through the cluster's own
    replay loop.
    """

    name = "cluster"
    rate_rps = 6000.0

    def _replay(self, tracer, state):
        dataset, quantized, artifact = state
        trace, rows = self._trace(dataset, quantized)
        config = ClusterConfig(
            n_fleets=2,
            serve=ServeConfig(max_queue_depth=self.requests),
            router_policy="least-queue-wait",
            autoscaler=AutoscalerConfig(),
        )

        def build():
            cluster = Cluster(artifact, config)
            cluster.start()
            return cluster

        cluster, build_s = timed(tracer, "cluster.build", build)
        report, replay_s = timed(tracer, "cluster.replay", cluster.replay,
                                 trace)
        violations = verify_cluster_invariants(report, cluster.submitted_ids)
        expect(not violations, "cluster.invariants",
               "; ".join(violations[:3]))
        expect(report.completed == report.submitted == self.requests,
               "cluster.all_completed",
               f"submitted {report.submitted} completed {report.completed} "
               f"rejected {report.rejected} failed {report.failed}")
        outcomes = [o for g in report.generations for o in g.report.outcomes]
        accuracy, cycles = check_outcomes("cluster", outcomes, rows,
                                          dataset, quantized)
        return report, build_s, replay_s, accuracy, cycles

    @staticmethod
    def _placement(report) -> dict:
        return {
            o.request_id: (g.fleet, o.device_id, o.latency_ms)
            for g in report.generations for o in g.report.outcomes
        }

    def probe(self, tracer, state, unit) -> dict:
        report = unit.info["report"]
        again = self._replay(tracer, state)[0]
        per_fleet: dict[str, int] = {}
        for g in report.generations:
            per_fleet[g.fleet] = per_fleet.get(g.fleet, 0) \
                + g.report.completed
        return {
            "cluster.build_s": unit.info["build_s"],
            "cluster.replay_s": unit.info["replay_s"],
            "cluster.fleet_share_max":
                max(per_fleet.values()) / report.completed,
            "cluster.scale_decisions": len(report.scale_decisions),
            "cluster.retries": sum(
                g.report.metrics["counters"].get("requests.retries", 0)
                for g in report.generations
            ),
            # requests offered again to a later fleet generation
            "cluster.reoffered": report.offered - report.submitted,
            "cluster.sim_p50_ms": report.latency_ms["p50"],
            "cluster.sim_p99_ms": report.latency_ms["p99"],
            "cluster.sim_goodput_rps": report.goodput_rps,
            "cluster.replay_divergence": divergence(
                self._placement(report), self._placement(again)
            ),
        }


WORKLOADS = {w.name: w for w in (Pipeline, Infer, Serve, ClusterWorkload)}
