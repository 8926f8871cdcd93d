"""Host-side speedup of the fastpath engine over the interpreter.

Runs every kernel encoding (dense, unrolled-dense, and all four sparse
formats) on both engines, measures host wall-clock per inference with
``time.perf_counter``, and persists the per-encoding speedups plus
their geometric mean to ``benchmarks/results/fastpath_speedup.json``
(CI uploads it as an artifact).

The acceptance bar from ISSUE 3 is a >=10x geometric-mean speedup for
tier 1; ISSUE 8 adds the tier-2 rows (content-specialized single runs
plus batch-fused execution) with a >=60x geometric-mean bar for the
fused path.  Simulated numbers (cycles, instruction counts, registers,
memory bytes, traffic counters) must be identical between engines —
both benchmarks re-assert that on every measured run, so the speedup
figures can never drift away from exactness.

Set ``REPRO_FASTPATH_BENCH_REPEATS`` to shrink/grow the timing loop
(default 5 repeats, best-of); the translation cost is excluded by a
warm-up run, matching how the serve registry amortizes it.
``REPRO_FASTPATH_BENCH_BATCH`` sets the fused batch size (default 256,
the serve-path admission ceiling's order of magnitude).
"""

import json
import os
import time
from statistics import geometric_mean

import numpy as np

from _output import RESULTS_DIR, emit
from repro.core.adjacency import clustered_adjacency
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.codegen_unrolled import generate_dense_unrolled
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.board import STM32F072RB
from repro.mcu.fastpath import make_cpu

REPEATS = int(os.environ.get("REPRO_FASTPATH_BENCH_REPEATS", "5"))
FUSED_BATCH = int(os.environ.get("REPRO_FASTPATH_BENCH_BATCH", "256"))
SPEEDUP_FLOOR = 10.0
V2_SPEEDUP_FLOOR = 60.0
#: ROADMAP target: one request on tier 2 is at least as fast as tier 1.
V2_SINGLE_FLOOR = 1.0


def _sparse_spec(n_in=256, n_out=32, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _dense_spec(n_in=256, n_out=32, seed=0):
    rng = np.random.default_rng(seed)
    return make_dense_spec(
        weights=rng.integers(-8, 9, (n_in, n_out)).astype(np.int8),
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _encodings():
    yield "dense", generate_dense(_dense_spec())
    yield "dense-unroll4", generate_dense_unrolled(_dense_spec(), unroll=4)
    for fmt in SPARSE_FORMATS:
        yield f"sparse-{fmt}", generate_sparse(_sparse_spec(), fmt)


def _block_784x64():
    """A block-encoded layer shaped like the mnist-small hidden layer."""
    rng = np.random.default_rng(0)
    spec = make_neuroc_spec(
        adjacency=clustered_adjacency(784, 64, 0.1, rng),
        bias=rng.integers(-3, 4, 64).astype(np.int32),
        mult=rng.integers(2000, 28000, 64).astype(np.int16),
        shift=19, act_in_width=1, act_out_width=1, relu=True,
    )
    return generate_sparse(spec, "block")


def _fill_input(image, spec_n_in=256, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 2, image.input_count)
    image.write_input(x)


def _best_seconds(cpu, program, repeats=REPEATS):
    """Best-of-N wall-clock for one run; first call warms translation."""
    cpu.run(program)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = cpu.run(program)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fastpath_speedup_geomean():
    rows = []
    for name, image in _encodings():
        _fill_input(image)
        fast_cpu = make_cpu(
            image.memory, costs=STM32F072RB.costs, engine="fastpath"
        )
        interp_cpu = make_cpu(
            image.memory, costs=STM32F072RB.costs, engine="interpreter"
        )
        fast_s, fast_result = _best_seconds(fast_cpu, image.program)
        interp_s, interp_result = _best_seconds(interp_cpu, image.program)
        assert fast_cpu.last_engine == "fastpath", name
        # Exactness guard: a "speedup" that changes the simulated
        # numbers would be a correctness bug, not an optimization.
        assert fast_result.cycles == interp_result.cycles, name
        assert fast_result.instructions == interp_result.instructions, name
        assert fast_result.registers == interp_result.registers, name
        rows.append({
            "encoding": name,
            "instructions": interp_result.instructions,
            "cycles": interp_result.cycles,
            "interpreter_s": interp_s,
            "fastpath_s": fast_s,
            "speedup": interp_s / fast_s,
            "interpreter_mips": interp_result.instructions / interp_s / 1e6,
            "fastpath_mips": fast_result.instructions / fast_s / 1e6,
        })

    speedup_geomean = geometric_mean(r["speedup"] for r in rows)

    lines = [
        f"{'encoding':16s} {'instrs':>8s} {'interp ms':>10s} "
        f"{'fast ms':>9s} {'speedup':>8s} {'fast MIPS':>10s}",
    ]
    for r in rows:
        lines.append(
            f"{r['encoding']:16s} {r['instructions']:8d} "
            f"{r['interpreter_s'] * 1e3:10.2f} "
            f"{r['fastpath_s'] * 1e3:9.3f} "
            f"{r['speedup']:7.1f}x {r['fastpath_mips']:10.1f}"
        )
    lines.append(f"geomean speedup: {speedup_geomean:.1f}x "
                 f"(floor: {SPEEDUP_FLOOR:.0f}x)")
    emit("fastpath_speedup", "\n".join(lines))

    _merge_results({
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_geomean": speedup_geomean,
        "encodings": rows,
    })

    assert speedup_geomean >= SPEEDUP_FLOOR, (
        f"geomean speedup {speedup_geomean:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x acceptance floor"
    )


def _merge_results(update: dict) -> None:
    """Read-modify-write so the v1 and v2 tests share one artifact."""
    path = RESULTS_DIR / "fastpath_speedup.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(update)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _assert_exact(name, got, ref):
    assert got.cycles == ref.cycles, name
    assert got.instructions == ref.instructions, name
    assert got.registers == ref.registers, name
    assert got.op_counts == ref.op_counts, name


def test_fastpath_v2_speedup_geomean():
    """Tier-2 rows: specialized single runs + fused batches, >=60x."""
    from repro.mcu.fastpath_v2 import make_batch_state

    rows = []
    for (name, image), (_, ref_image) in zip(_encodings(), _encodings()):
        _fill_input(image)
        _fill_input(ref_image)
        v2_cpu = make_cpu(
            image.memory, costs=STM32F072RB.costs, engine="fastpath-v2"
        )
        interp_cpu = make_cpu(
            ref_image.memory, costs=STM32F072RB.costs, engine="interpreter"
        )
        v2_s, v2_result = _best_seconds(v2_cpu, image.program)
        interp_s, interp_result = _best_seconds(interp_cpu, ref_image.program)
        assert v2_cpu.last_engine == "fastpath-v2", name
        # Exactness guard, tier-2 edition: simulated numbers *and*
        # final memory/traffic state must match the interpreter (both
        # engines ran warm-up + REPEATS times on their own image).
        _assert_exact(name, v2_result, interp_result)
        for ref_region, v2_region in zip(
            ref_image.memory.regions, image.memory.regions
        ):
            assert bytes(v2_region.data) == bytes(ref_region.data), name
            assert v2_region.loads == ref_region.loads, name
            assert v2_region.stores == ref_region.stores, name
            assert v2_region.bytes_loaded == ref_region.bytes_loaded, name
            assert v2_region.bytes_stored == ref_region.bytes_stored, name

        # Batch-fused: one vectorized call serves FUSED_BATCH rows; the
        # per-request cycle charge is the same specialize-time constant
        # the single run was billed.
        specialized = v2_cpu.last_specialization
        assert specialized is not None, name
        assert specialized.cycles == interp_result.cycles, name
        fused_best = float("inf")
        for _ in range(REPEATS):
            mats = make_batch_state(image.memory, FUSED_BATCH)
            start = time.perf_counter()
            specialized.fn(mats)
            fused_best = min(fused_best, time.perf_counter() - start)
        fused_per_run = fused_best / FUSED_BATCH
        rows.append({
            "encoding": name,
            "instructions": interp_result.instructions,
            "cycles": interp_result.cycles,
            "interpreter_s": interp_s,
            "v2_single_s": v2_s,
            "v2_fused_s_per_run": fused_per_run,
            "speedup_single": interp_s / v2_s,
            "speedup_fused": interp_s / fused_per_run,
            "v2_fused_mips": (
                interp_result.instructions / fused_per_run / 1e6
            ),
        })

    single_geomean = geometric_mean(r["speedup_single"] for r in rows)
    fused_geomean = geometric_mean(r["speedup_fused"] for r in rows)

    lines = [
        f"{'encoding':16s} {'instrs':>8s} {'single':>9s} "
        f"{'fused':>9s} {'fused MIPS':>11s}",
    ]
    for r in rows:
        lines.append(
            f"{r['encoding']:16s} {r['instructions']:8d} "
            f"{r['speedup_single']:8.1f}x {r['speedup_fused']:8.1f}x "
            f"{r['v2_fused_mips']:11.1f}"
        )
    lines.append(
        f"geomean: single {single_geomean:.1f}x, fused "
        f"{fused_geomean:.1f}x (floor: {V2_SPEEDUP_FLOOR:.0f}x, "
        f"batch {FUSED_BATCH})"
    )
    emit("fastpath_v2_speedup", "\n".join(lines))

    _merge_results({
        "v2": {
            "repeats": REPEATS,
            "fused_batch": FUSED_BATCH,
            "speedup_floor": V2_SPEEDUP_FLOOR,
            "speedup_single_geomean": single_geomean,
            "speedup_fused_geomean": fused_geomean,
            "encodings": rows,
        },
    })

    assert fused_geomean >= V2_SPEEDUP_FLOOR, (
        f"fused geomean speedup {fused_geomean:.1f}x is below the "
        f"{V2_SPEEDUP_FLOOR:.0f}x acceptance floor"
    )


def test_fastpath_v2_single_request_not_slower_than_tier1():
    """Tier-2 row at batch 1: a single specialized run vs tier 1.

    Covers every encoding plus a 784x64 block layer, the shape whose
    per-neuron emission once made tier 2 slower than tier 1 for one
    request.  Each row must meet the floor on its own.
    """
    rows = []
    for name, image in [*_encodings(), ("block-784x64", _block_784x64())]:
        _fill_input(image)
        tier1 = make_cpu(
            image.memory, costs=STM32F072RB.costs, engine="fastpath"
        )
        tier2 = make_cpu(
            image.memory, costs=STM32F072RB.costs, engine="fastpath-v2"
        )
        t1_s, t1_result = _best_seconds(tier1, image.program)
        v2_s, v2_result = _best_seconds(tier2, image.program)
        assert tier2.last_engine == "fastpath-v2", name
        _assert_exact(name, v2_result, t1_result)
        rows.append({
            "encoding": name,
            "fastpath_s": t1_s,
            "v2_single_s": v2_s,
            "v2_over_tier1": t1_s / v2_s,
        })

    lines = [f"{'encoding':16s} {'tier1 us':>10s} {'tier2 us':>10s} "
             f"{'ratio':>7s}"]
    for r in rows:
        lines.append(
            f"{r['encoding']:16s} {r['fastpath_s'] * 1e6:10.1f} "
            f"{r['v2_single_s'] * 1e6:10.1f} {r['v2_over_tier1']:6.1f}x"
        )
    lines.append(f"floor: tier 2 >= {V2_SINGLE_FLOOR:.0f}x tier 1 per row")
    emit("fastpath_v2_single", "\n".join(lines))
    _merge_results({
        "v2_single": {
            "repeats": REPEATS,
            "floor": V2_SINGLE_FLOOR,
            "encodings": rows,
        },
    })

    slow = [r["encoding"] for r in rows
            if r["v2_over_tier1"] < V2_SINGLE_FLOOR]
    assert not slow, (
        f"tier 2 slower than tier 1 for one request on {slow}"
    )
