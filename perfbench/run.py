"""Benchmark of the Neuro-C stack: one seeded workload per run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` sets the workload up cold several times (reporting the
median), repeats its timed unit for about ``--seconds`` seconds, checks
every output and prints the end-to-end metrics.  ``--trace 1`` runs each
of the four workloads once with host-time spans around every call into a
layer, prints the per-layer metrics, per-layer self time and the tracing
overhead of ``--workload``, and writes the spans as Chrome trace JSON
under ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``; ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("pipeline", "infer", "serve", "cluster")
#: Seed reserved for confirming a claimed gain: never tune on it.
HELD_OUT_SEED = 9001
#: Cold set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Reference-task timings before the first unit and after each unit.
REFERENCE_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
        or f"library default ({os.cpu_count()} cores)",
        "load_generator_threads": 1,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def reference_task(np) -> float:
    """Host seconds of a fixed task the benchmark owns, not program code.

    The host this benchmark was tuned on drifts in speed by 20-40% over
    tens of seconds.  ``work_ref`` divides the median unit time by the
    median time of this task, run between units, which cancels most of
    that drift for the CPU-bound workloads while any change to the
    program still shows in full.
    """
    began = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = np.arange(50_000, dtype=np.int64)
    for _ in range(30):
        values = (values * 3 + 1) & 0xFFFF
    return time.perf_counter() - began


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def as_json_number(value):
    return value.item() if hasattr(value, "item") else value


def metric_block(declared: list[dict], values: dict) -> dict:
    """Values in BENCHMARK.json's order and units; both sets must match."""
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(
            f"metrics out of sync with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        m["name"]: {"value": as_json_number(values[m["name"]]),
                    "unit": m["unit"]}
        for m in declared
    }


class Tally:
    """Inference rows attempted so far, for the result of a failed run."""

    def __init__(self) -> None:
        self.attempted = 0

    def add(self, unit) -> None:
        self.attempted += unit.rows


def run_untraced(args, np, workloads, spans, import_s: float,
                 tally: Tally):
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer(enabled=False)
    builds = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        state = workload.setup(tracer)
        builds.append(time.perf_counter() - began)

    units = []
    reference = [reference_task(np) for _ in range(REFERENCE_REPEATS)]
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        unit = workload.unit(tracer, state)
        reference += [reference_task(np) for _ in range(REFERENCE_REPEATS)]
        units.append(unit)
        tally.add(unit)
        now = time.perf_counter()
        # Start another unit only if it should finish within budget.
        if now - start + (now - began) > args.seconds:
            break

    exact = units[0].exact
    workloads.expect(
        all(u.exact == exact for u in units),
        f"{workload.name}.exact_metrics_repeat",
        f"per-unit values {[u.exact for u in units]}",
    )
    work_s = statistics.median(u.work_s for u in units)
    row_s = statistics.median(u.row_s for u in units)
    reference_s = statistics.median(reference)
    values = {
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": peak_rss_mb(),
        "work_ref": work_s / reference_s,
        "row_ref": row_s / reference_s,
        **exact,
    }
    print(f"setup_s {values['setup_s']:.4f} s = import {import_s:.4f} s "
          f"+ median of {SETUP_REPEATS} cold set-ups "
          f"{[round(b, 4) for b in builds]}")
    print(f"work_s {work_s:.4f} s, median of {len(units)} units "
          f"{[round(u.work_s, 4) for u in units]}")
    print(f"work_ref {values['work_ref']:.3f} x the reference task "
          f"(median {reference_s * 1e3:.2f} ms of {len(reference)})")
    print(f"row_s {row_s * 1e6:.1f} us per row of bulk inference, "
          f"row_ref {values['row_ref']:.5f} x the reference task")
    for line in workload.headline(units, work_s):
        print(line)
    for name in ("sim_cycles", "flash_bytes", "device_accuracy"):
        print(f"{name} {values[name]}")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    return values


def run_traced(args, workloads, spans, tally: Tally):
    tracer = spans.Tracer(enabled=True)
    values: dict = {}
    sim_traces = []
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name](args.seed)
        tracer.run = name
        with tracer.span(f"bench.{name}.setup"):
            state = workload.setup(tracer)
        # The first unit in a process runs slower (the first pipeline's
        # dataset generation by a third); the untraced run's median skips
        # it, so the traced unit and the overhead reference skip it too.
        untraced = spans.Tracer(enabled=False)
        workload.unit(untraced, state)
        if name == args.workload:
            plain = workload.unit(untraced, state)
        with tracer.span(f"bench.{name}.unit"):
            unit = workload.unit(tracer, state)
        tally.add(unit)
        if name == args.workload:
            extra = unit.work_s - plain.work_s
            print(f"tracing overhead on {name}: traced work_s "
                  f"{unit.work_s:.4f} s - untraced {plain.work_s:.4f} s = "
                  f"{extra:+.4f} s ({extra / plain.work_s:+.2%})")
        report = unit.info.get("report")
        if report is not None:
            generations = getattr(report, "generations", None)
            sim_traces += (
                [g.report.trace for g in generations] if generations
                else [report.trace]
            )
        tracer.run = f"{name}.probe"
        with tracer.span(f"bench.{name}.probe"):
            values.update(workload.probe(tracer, state, unit))

    self_times = tracer.self_times()
    print("self time (s) per layer, excluding probes:")
    for name in WORKLOAD_NAMES:
        row = {layer: seconds for (run, layer), seconds in self_times.items()
               if run == name}
        values.update(
            {f"{name}.{layer}.self_s": s for layer, s in row.items()}
        )
        print(f"  {name:9s}" + "".join(
            f" {layer}={seconds:.3f}" for layer, seconds in row.items()
        ))
    # A call that raises aborts the run, so a printed result never holds
    # a failed call; request-level failures are the reports' retry counts.
    for layer, calls in tracer.layer_calls().items():
        values[f"{layer}.calls"] = calls

    events = tracer.chrome_events(pid=0)
    for pid, collector in enumerate(sim_traces, start=1):
        events += collector.trace_events(pid=pid)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    print(f"wrote {len(tracer.spans)} host spans and {len(sim_traces)} "
          f"simulated-clock tracks to {path.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from a repository checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    began = time.perf_counter()
    import numpy as np
    import spans
    import workloads
    import_s = time.perf_counter() - began

    print("fingerprint " + json.dumps(fingerprint(args, np)))
    RESULTS.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            values = run_traced(args, workloads, spans, tally)
            declared = spec["per_layer"]
        else:
            values = run_untraced(args, np, workloads, spans, import_s,
                                  tally)
            declared = spec["end_to_end"]
    except workloads.CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(tally.attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    # Every check passed: a wrong, shed or failed row raises CheckFailed.
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": 0,
        "metrics": metric_block(declared, values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
