"""Differential harness for the tier-2 specialized engine.

The fastpath-v2 contract extends tier 1's bit-exactness to the
content-specialized engine: on every program the specializer accepts,
single-input runs and batch-fused runs must leave *exactly* the state
the reference interpreter would — registers, memory bytes, cycles,
instruction counts, op counts, and per-region traffic counters.  This
file enforces it on every kernel encoding (dense, unrolled dense, all
four sparse formats) and re-runs the 220-seed random-program fuzzer
from ``test_fastpath`` with tier-2 preconditions (zero entry
registers) on the ``REPRO_FUZZ_BOARD`` profile, covering both the
accept path (single + fused) and the decline machinery.  It also pins
the tier-selection rules (tier 2, else the interpreter), the tiered
cache-stats contract and eviction, the layer-level shape of the emitted code, the
product type the specialize-time bound picks, and fused batches of a
784-64-10 model on every board profile.
"""

import numpy as np
import pytest

from repro.core.adjacency import clustered_adjacency
from repro.errors import ExecutionError, MemoryMapError
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.codegen_unrolled import generate_dense_unrolled
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.deploy.artifact import DeployedModel
from repro.mcu.board import BOARD_PROFILES, STM32F072RB
from repro.mcu.fastpath import (
    SpecializedCPU,
    clear_translation_cache,
    evict_translation,
    make_cpu,
    translate,
    translate_v2,
    translation_cache_stats,
    why_declined,
    why_declined_v2,
)
from repro.mcu import fastpath_v2
from repro.mcu.fastpath_v2 import (
    SpecializedProgram,
    charge_batch_traffic,
    commit_batch_row,
    make_batch_state,
)
from repro.mcu.isa import Assembler, Instr, Op, Program, Reg
from repro.mcu.memory import MemoryMap
from repro.quantize.ptq import QuantizedModel
from tests.mcu.test_fastpath import (
    FUZZ_BOARD,
    RAM,
    SCRATCH,
    _random_program,
    _random_state,
)

COSTS = STM32F072RB.costs

_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32}


# -- kernel-image helpers --------------------------------------------------


def _sparse_spec(n_in=96, n_out=16, density=0.15, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _dense_spec(n_in=96, n_out=16, seed=0):
    rng = np.random.default_rng(seed)
    return make_dense_spec(
        weights=rng.integers(-8, 9, (n_in, n_out)).astype(np.int8),
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


_BUILDERS = {
    "dense": lambda: generate_dense(_dense_spec()),
    "dense-unroll4": lambda: generate_dense_unrolled(
        _dense_spec(), unroll=4
    ),
    **{
        f"sparse-{fmt}": (
            lambda fmt=fmt: generate_sparse(_sparse_spec(), fmt)
        )
        for fmt in SPARSE_FORMATS
    },
}

ENCODINGS = tuple(_BUILDERS)


def _locate_writable(memory, addr, span):
    """(mats position, byte offset) of ``[addr, addr+span)``."""
    position = 0
    for region in memory.regions:
        if not region.writable:
            continue
        if region.contains(addr, span):
            return position, addr - region.base
        position += 1
    raise AssertionError(f"0x{addr:08x} not in a writable region")


def _region_state(memory):
    return [
        (
            bytes(region.data),
            region.loads,
            region.stores,
            region.bytes_loaded,
            region.bytes_stored,
        )
        for region in memory.regions
    ]


def _assert_results_equal(got, ref, context=""):
    assert got.cycles == ref.cycles, context
    assert got.instructions == ref.instructions, context
    assert got.registers == ref.registers, context
    assert got.op_counts == ref.op_counts, context


def _row_registers(out_regs, row):
    """One batch row's final register file from ``sp.fn``'s output."""
    return [
        value if isinstance(value, int)
        else int(np.asarray(value).ravel()[row])
        for value in out_regs
    ]


# -- kernel differentials --------------------------------------------------


class TestKernelDifferentialV2:
    """Every encoding, specialized engine vs interpreter, bit-exact."""

    @pytest.mark.parametrize("name", ENCODINGS)
    def test_single_input_bit_exact(self, name):
        ref_image = _BUILDERS[name]()
        v2_image = _BUILDERS[name]()
        rng = np.random.default_rng(7)
        x = rng.integers(-2, 2, ref_image.input_count)
        ref_image.write_input(x)
        v2_image.write_input(x)

        ref = make_cpu(
            ref_image.memory, costs=COSTS, engine="interpreter"
        ).run(ref_image.program)
        cpu = make_cpu(v2_image.memory, costs=COSTS, engine="fastpath-v2")
        got = cpu.run(v2_image.program)

        assert cpu.last_engine == "fastpath-v2", (
            f"specializer declined {name}: "
            f"{why_declined_v2(v2_image.program, v2_image.memory, COSTS)}"
        )
        _assert_results_equal(got, ref, name)
        assert _region_state(v2_image.memory) == _region_state(
            ref_image.memory
        ), name
        assert np.array_equal(
            v2_image.read_output(), ref_image.read_output()
        ), name

    @pytest.mark.parametrize("name", ENCODINGS)
    def test_batch_fused_matches_sequential_interpreter(self, name):
        batch = 5
        ref_image = _BUILDERS[name]()
        fused_image = _BUILDERS[name]()
        rng = np.random.default_rng(11)
        xs = rng.integers(-2, 2, (batch, ref_image.input_count))

        interp = make_cpu(
            ref_image.memory, costs=COSTS, engine="interpreter"
        )
        refs, ref_outputs = [], []
        for row in range(batch):
            ref_image.write_input(xs[row])
            refs.append(interp.run(ref_image.program))
            ref_outputs.append(ref_image.read_output().copy())

        sp = translate_v2(fused_image.program, fused_image.memory, COSTS)
        assert sp is not None, (
            f"specializer declined {name}: "
            f"{why_declined_v2(fused_image.program, fused_image.memory, COSTS)}"
        )
        memory = fused_image.memory
        mats = make_batch_state(memory, batch)
        in_dtype = np.dtype(
            _DTYPES[fused_image.input_width]
        ).newbyteorder("<")
        raw = np.ascontiguousarray(
            xs.astype(in_dtype)
        ).view(np.uint8).reshape(batch, -1)
        pos, off = _locate_writable(
            memory, fused_image.input_addr, raw.shape[1]
        )
        mats[pos][:, off:off + raw.shape[1]] = raw

        out_regs = sp.fn(mats)
        charge_batch_traffic(memory, sp, batch)
        commit_batch_row(memory, mats, batch - 1)

        # Per-request charges are input-independent constants.
        for row, ref in enumerate(refs):
            assert sp.cycles == ref.cycles, (name, row)
            assert sp.instructions == ref.instructions, (name, row)
            assert sp.op_counts() == ref.op_counts, (name, row)
            assert _row_registers(out_regs, row) == ref.registers, (
                name, row,
            )

        # Per-row outputs match the sequential interpreter runs.
        out_dtype = np.dtype(
            _DTYPES[fused_image.output_width]
        ).newbyteorder("<")
        ospan = fused_image.output_count * fused_image.output_width
        opos, ooff = _locate_writable(
            memory, fused_image.output_addr, ospan
        )
        logits = np.ascontiguousarray(
            mats[opos][:, ooff:ooff + ospan]
        ).view(out_dtype)
        assert np.array_equal(logits, np.stack(ref_outputs)), name

        # Final memory + traffic equal `batch` sequential runs.
        assert _region_state(memory) == _region_state(
            ref_image.memory
        ), name


# -- the fuzzer, tier-2 edition --------------------------------------------


def _interp_run(program, ram_image, costs, board=STM32F072RB):
    memory = board.make_memory()
    memory.region("ram").data[: len(ram_image)] = ram_image
    result = make_cpu(memory, costs=costs, engine="interpreter").run(
        program
    )
    return result, memory


def _check_batch_fused(program, sp, images, costs, context,
                       board=STM32F072RB):
    """One fused call over ``images`` (RAM contents, one per row) leaves
    every row's registers and RAM as its own interpreter run would."""
    refs = [_interp_run(program, image, costs, board) for image in images]
    memory = board.make_memory()
    mats = make_batch_state(memory, len(images))
    pos, off = _locate_writable(memory, board.ram_base, SCRATCH)
    for row, image in enumerate(images):
        mats[pos][row, off:off + len(image)] = np.frombuffer(
            image, dtype=np.uint8
        )
    out_regs = sp.fn(mats)
    for row, (ref, ref_memory) in enumerate(refs):
        assert sp.cycles == ref.cycles, (context, row)
        assert sp.instructions == ref.instructions, (context, row)
        assert _row_registers(out_regs, row) == ref.registers, (
            context, row,
        )
        assert (
            mats[pos][row].tobytes()
            == bytes(ref_memory.region("ram").data)
        ), (context, row)


def _fuzz_case(seed):
    """Seed ``seed``'s program, RAM image and cost table on
    ``FUZZ_BOARD``, the way ``TestFuzzDifferential`` builds them."""
    program = _random_program(seed, FUZZ_BOARD.ram_base)
    _, ram_image, costs = _random_state(seed)
    return program, ram_image, costs or FUZZ_BOARD.costs


class TestFuzzDifferentialV2:
    """The 220 fuzz seeds under tier-2 preconditions (zero registers).

    Runs against ``FUZZ_BOARD`` (REPRO_FUZZ_BOARD, default the M0), like
    ``TestFuzzDifferential``: programs use the board's RAM base and run
    in its memory map under its cost table.  Tier 2 prices its own
    trace, so every board's cycles are checked here.  On the M0, 201 of
    the 220 generated programs specialize (input-independent control
    flow and addressing); the other 19 exercise the decline machinery
    and must still be served bit-exactly by the interpreter.  Accepted
    programs are additionally run batch-fused over rows with
    *different* RAM images and compared row-by-row.
    """

    @pytest.mark.parametrize("seed", range(220))
    def test_zero_entry_bit_exact(self, seed):
        program, ram_image, costs = _fuzz_case(seed)
        ref, ref_memory = _interp_run(program, ram_image, costs, FUZZ_BOARD)

        memory = FUZZ_BOARD.make_memory()
        memory.region("ram").data[: len(ram_image)] = ram_image
        cpu = make_cpu(memory, costs=costs, engine="fastpath-v2")
        got = cpu.run(program)

        _assert_results_equal(got, ref, f"seed {seed}")
        assert _region_state(memory) == _region_state(ref_memory), seed
        if cpu.last_specialization is not None:
            assert cpu.last_engine == "fastpath-v2"
            rng = np.random.default_rng(seed + 77_000)
            images = [
                bytes(rng.integers(0, 256, SCRATCH, dtype=np.uint8))
                for _ in range(3)
            ]
            _check_batch_fused(
                program, cpu.last_specialization, images, costs, seed,
                FUZZ_BOARD,
            )
        else:
            assert cpu.last_engine == "interpreter"

    def test_fuzzer_exercises_both_tier2_paths(self):
        accepted = declined = 0
        for seed in range(220):
            program, ram_image, costs = _fuzz_case(seed)
            memory = FUZZ_BOARD.make_memory()
            memory.region("ram").data[: len(ram_image)] = ram_image
            if translate_v2(program, memory, costs) is None:
                declined += 1
            else:
                accepted += 1
        assert accepted >= 150, accepted
        assert declined >= 10, declined


# -- tier selection and decline rules --------------------------------------


def _trivial_program(name="tiny"):
    asm = Assembler(name)
    asm.movi(Reg.R0, 41)
    asm.addi(Reg.R0, Reg.R0, 1)
    asm.halt()
    return asm.assemble()


class TestTierSelection:
    """Tier 2 serves a run or the interpreter does; nothing in between."""

    def test_nonzero_entry_registers_run_on_the_interpreter(self):
        program = _trivial_program()
        memory = MemoryMap.stm32()
        cpu = make_cpu(memory, engine="fastpath-v2")
        assert isinstance(cpu, SpecializedCPU)
        result = cpu.run(program, {Reg.R5: 9})
        assert cpu.last_engine == "interpreter"
        assert cpu.last_specialization is None
        assert result.registers[Reg.R0] == 42

        # All-zero explicit registers satisfy the precondition.
        cpu.run(program, {Reg.R5: 0})
        assert cpu.last_engine == "fastpath-v2"
        assert cpu.last_specialization is not None

    def test_data_dependent_branch_declines_to_interpreter(self):
        asm = Assembler("sym-branch")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.cmpi(Reg.R0, 3)
        asm.beq("skip")
        asm.addi(Reg.R1, Reg.R1, 1)
        asm.label("skip")
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        reason = why_declined_v2(program, memory)
        assert reason is not None and "symbolic flags" in reason
        cpu = make_cpu(memory, engine="fastpath-v2")
        ref, ref_memory = _interp_run(program, b"", None)
        got = cpu.run(program)
        assert cpu.last_engine == "interpreter"
        _assert_results_equal(got, ref)

    def test_data_dependent_address_declines_to_interpreter(self):
        asm = Assembler("sym-addr")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R1, Reg.R7, 0)
        asm.ldrb(Reg.R0, Reg.R7, Reg.R1)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        reason = why_declined_v2(program, memory)
        assert reason is not None and "depends on input data" in reason
        cpu = make_cpu(memory, engine="fastpath-v2")
        cpu.run(program)
        assert cpu.last_engine == "interpreter"

    def test_malformed_program_declines_from_the_trace(self):
        # Structurally invalid: ends in a non-branch, so the trace runs
        # off the end; the interpreter serves the (failing) run.
        program = Program(
            (
                Instr(Op.MOVI, (Reg.R0, 1)),
                Instr(Op.ADDI, (Reg.R1, Reg.R0, 2)),
            ),
            {}, "falls-off-v2",
        )
        memory = MemoryMap.stm32()
        assert translate_v2(program, memory) is None
        assert why_declined_v2(program, memory) == "pc 2 out of range"
        cpu = make_cpu(memory, engine="fastpath-v2")
        with pytest.raises(ExecutionError, match="out of range"):
            cpu.run(program)
        assert cpu.last_engine == "interpreter"

    def test_negative_branch_target_is_out_of_range(self):
        # ``B -1`` must fail like any other bad pc, not index the
        # program from its end (which would loop back to the HALT).
        program = Program(
            (
                Instr(Op.MOVI, (Reg.R0, 7)),
                Instr(Op.B, (-1,)),
                Instr(Op.MOVI, (Reg.R0, 9)),
                Instr(Op.HALT, ()),
            ),
            {}, "negative-target",
        )
        memory = MemoryMap.stm32()
        assert why_declined_v2(program, memory) == "pc -1 out of range"
        assert "invalid target -1" in why_declined(program, memory)
        for engine in ("interpreter", "fastpath", "fastpath-v2"):
            cpu = make_cpu(MemoryMap.stm32(), engine=engine)
            with pytest.raises(
                ExecutionError,
                match=r"pc -1 out of range in 'negative-target'",
            ):
                cpu.run(program)
            if engine != "interpreter":
                assert cpu.last_engine == "interpreter"

    def test_trace_budget_declines_to_interpreter(self, monkeypatch):
        asm = Assembler("over-budget")
        asm.movi(Reg.R1, 10)
        asm.label("loop")
        asm.subsi(Reg.R1, Reg.R1, 1)
        asm.bgt("loop")
        asm.halt()                               # 22 instructions run
        program = asm.assemble()
        clear_translation_cache()
        monkeypatch.setattr(fastpath_v2, "TRACE_BUDGET", 8)
        try:
            memory = MemoryMap.stm32()
            assert why_declined_v2(program, memory) == (
                "one execution exceeds the 8-instruction specialization "
                "budget"
            )
            cpu = make_cpu(memory, engine="fastpath-v2")
            got = cpu.run(program)
            assert cpu.last_engine == "interpreter"
            ref, _ = _interp_run(program, b"", None)
            _assert_results_equal(got, ref)
            assert got.instructions == 22
        finally:
            clear_translation_cache()           # forget the low-budget decline

    @pytest.mark.parametrize("build, reason", [
        (
            lambda asm: (
                asm.movi(Reg.R7, 0x1000_0000),
                asm.ldrh(Reg.R0, Reg.R7, 2),
            ),
            "unmapped 2-byte access at 0x10000002 "
            "(error path runs on the interpreter)",
        ),
        (
            lambda asm: (
                asm.movi(Reg.R7, 0x0800_0000),
                asm.strb(Reg.R0, Reg.R7, 4),
            ),
            "store to read-only region 'flash' "
            "(error path runs on the interpreter)",
        ),
    ], ids=["unmapped", "read-only-store"])
    def test_error_path_declines_to_interpreter(self, build, reason):
        asm = Assembler("error-path")
        asm.movi(Reg.R0, 1)
        build(asm)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        assert why_declined_v2(program, memory) == reason
        with pytest.raises(MemoryMapError) as expected:
            make_cpu(MemoryMap.stm32(), engine="interpreter").run(program)
        cpu = make_cpu(memory, engine="fastpath-v2")
        with pytest.raises(MemoryMapError) as got:
            cpu.run(program)
        assert str(got.value) == str(expected.value)
        assert cpu.last_engine == "interpreter"

    def test_instruction_cap_respected(self):
        # The fused body cannot stop mid-flight, so tier 2 only serves
        # runs that provably fit under max_instructions; over the cap
        # the interpreter runs and raises.
        program = _trivial_program("capped")     # executes 3
        memory = MemoryMap.stm32()
        cpu = SpecializedCPU(memory, max_instructions=3)
        result = cpu.run(program)
        assert cpu.last_engine == "fastpath-v2"
        assert result.instructions == 3
        tight = SpecializedCPU(memory, max_instructions=2)
        with pytest.raises(ExecutionError, match="exceeded 2 instructions"):
            tight.run(program)
        assert tight.last_engine == "interpreter"

    def test_specialization_is_shared_across_replicas(self):
        # Two byte-identical programs against identical frozen content
        # share one SpecializedProgram (the fleet-replica contract).
        clear_translation_cache()
        memory_a, memory_b = MemoryMap.stm32(), MemoryMap.stm32()
        first = translate_v2(_trivial_program("twin"), memory_a)
        second = translate_v2(_trivial_program("twin"), memory_b)
        assert isinstance(first, SpecializedProgram)
        assert first is second

    def test_flash_content_is_part_of_the_key(self):
        # Same program, different read-only bytes: distinct
        # specializations (the content hash extends the cache key).
        clear_translation_cache()
        asm = Assembler("flashy")
        asm.movi(Reg.R7, 0x0800_0000)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.halt()
        program = asm.assemble()
        plain = MemoryMap.stm32()
        patched = MemoryMap.stm32()
        patched.region("flash").data[0] = 0x5A
        first = translate_v2(program, plain)
        second = translate_v2(program, patched)
        assert first is not second
        assert translation_cache_stats()["v2"]["entries"] == 2


# -- tiered cache stats and eviction ---------------------------------------


class TestTieredCacheStats:
    def test_stats_report_each_tier(self):
        clear_translation_cache()
        program = _trivial_program("stats")
        memory = MemoryMap.stm32()

        translate(program, memory)
        stats = translation_cache_stats()
        assert stats["v1"] == {
            "entries": 1, "hits": 0, "misses": 1, "declined": 0,
        }
        assert stats["v2"]["entries"] == 0

        # translate_v2 records a v2 miss and leaves tier 1 untouched.
        translate_v2(program, memory)
        stats = translation_cache_stats()
        assert stats["v1"] == {
            "entries": 1, "hits": 0, "misses": 1, "declined": 0,
        }
        assert stats["v2"] == {
            "entries": 1, "hits": 0, "misses": 1, "declined": 0,
        }

        translate_v2(program, memory)
        stats = translation_cache_stats()
        assert stats["v2"]["hits"] == 1
        # Aggregate keys stay the cross-tier sums.
        assert stats["entries"] == 2
        assert stats["hits"] == stats["v1"]["hits"] + stats["v2"]["hits"]
        assert (
            stats["misses"]
            == stats["v1"]["misses"] + stats["v2"]["misses"]
        )

    def test_cold_specialization_builds_no_tier1_entry(self):
        clear_translation_cache()
        assert isinstance(
            translate_v2(_trivial_program("alone"), MemoryMap.stm32()),
            SpecializedProgram,
        )
        stats = translation_cache_stats()
        assert stats["v1"]["entries"] == 0
        assert stats["v1"]["misses"] == 0
        assert stats["v2"]["entries"] == 1

    def test_declines_counted_per_tier(self):
        clear_translation_cache()
        asm = Assembler("declines")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.cmpi(Reg.R0, 0)
        asm.beq("out")
        asm.label("out")
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        assert translate_v2(program, memory) is None
        assert translate(program, memory) is not None  # tier 1 accepts it
        stats = translation_cache_stats()
        assert stats["v1"]["declined"] == 0
        assert stats["v2"]["declined"] == 1
        assert stats["declined"] == 1

    def test_evict_drops_both_tiers(self):
        clear_translation_cache()
        program = _trivial_program("evicted")
        memory = MemoryMap.stm32()
        translate(program, memory)
        translate_v2(program, memory)
        assert translation_cache_stats()["entries"] == 2

        assert evict_translation(program, memory) is True
        stats = translation_cache_stats()
        assert stats["entries"] == 0
        assert stats["v1"]["entries"] == 0
        assert stats["v2"]["entries"] == 0

        # Rebuilding tier 2 after eviction misses tier 2 alone.
        translate_v2(program, memory)
        stats = translation_cache_stats()
        assert stats["v1"]["misses"] == 1
        assert stats["v2"]["misses"] == 2
        assert stats["v1"]["entries"] == 0

    def test_evict_with_only_v1_present(self):
        clear_translation_cache()
        program = _trivial_program("v1-only")
        memory = MemoryMap.stm32()
        translate(program, memory)
        assert evict_translation(program, memory) is True
        assert translation_cache_stats()["entries"] == 0
        assert evict_translation(program, memory) is False


# -- layer-level emission --------------------------------------------------


def _neuroc_layer(n_in, n_out, bias, rng, **kwargs):
    """A ternary layer spec with per-neuron multipliers."""
    return make_neuroc_spec(
        adjacency=clustered_adjacency(n_in, n_out, 0.1, rng),
        bias=np.asarray(bias, dtype=np.int32),
        mult=rng.integers(2000, 28000, n_out).astype(np.int16),
        **kwargs,
    )


def _mnist_shaped_model(seed=0):
    """784-64-10 Neuro-C model shaped like the zoo's ``mnist-small``.

    Hidden biases mix zeros and non-zeros, so both post-chain shapes
    (with and without the bias add) appear in the emitted code.
    """
    rng = np.random.default_rng(seed)
    hidden = _neuroc_layer(
        784, 64, rng.integers(-3, 4, 64), rng, shift=19,
        act_in_width=1, act_out_width=1, relu=True,
    )
    logits = _neuroc_layer(
        64, 10, rng.integers(-200, 200, 10), rng, shift=8,
        act_in_width=1, act_out_width=2, relu=False,
    )
    return QuantizedModel([hidden, logits], input_scale=1 / 127,
                          act_width=1)


def _ram_and_traffic(model):
    return (
        [bytes(region.data) for region in model.memory.regions],
        [
            (r.loads, r.bytes_loaded, r.stores, r.bytes_stored)
            for r in model.memory.regions
        ],
    )


class TestLayerLevelEmission:
    def test_statement_count_independent_of_n_out(self):
        statements = {}
        for n_out in (16, 64):
            rng = np.random.default_rng(3)
            bias = rng.integers(1, 100, n_out) * rng.choice([-1, 1], n_out)
            spec = _neuroc_layer(
                784, n_out, bias, rng, shift=19, act_in_width=1,
                act_out_width=1, relu=True,
            )
            image = generate_sparse(spec, "block")
            sp = translate_v2(image.program, image.memory, COSTS)
            assert isinstance(sp, SpecializedProgram), sp
            body = sp.source.splitlines()[1:]
            assert any(" @ " in line for line in body), sp.source
            # One cast for the gathered activations, two for the product:
            # no per-neuron astype chains.
            assert sp.source.count("astype") <= 3, sp.source
            statements[n_out] = len(body)
        assert abs(statements[16] - statements[64]) <= 2, statements

    @pytest.mark.parametrize("board", BOARD_PROFILES.values(),
                             ids=BOARD_PROFILES)
    def test_fused_batches_match_sequential_interpreter(self, board):
        """784-64-10 at batch 1, 4 and 256 on every board profile.

        The interpreter runs rows 0-3 in sequence, then row 255.  Batches
        1 and 4 compare against the state after exactly that many runs.
        Each run dirties the same cells and, as the fused path's hazard
        check requires, reads none a previous row left behind, so after
        row 255 the interpreter's RAM is the state 256 sequential runs
        leave, and its per-region traffic is five times one run's.
        """
        quantized = _mnist_shaped_model()
        x = np.random.default_rng(5).uniform(-1.2, 1.2, (256, 784))
        reference = DeployedModel(quantized, "block", board=board,
                                  engine="interpreter")
        expected = {}
        for runs, row in enumerate((0, 1, 2, 3, 255), start=1):
            result = reference.infer(x[row])
            expected[row] = (result, runs, *_ram_and_traffic(reference))

        for batch in (1, 4, 256):
            fused = DeployedModel(quantized, "block", board=board,
                                  engine="fastpath-v2")
            out = fused.infer_batch(x[:batch])
            assert out.fused
            assert np.array_equal(out.logits, quantized.forward(x[:batch]))
            for row, (result, _, _, _) in expected.items():
                if row < batch:
                    assert np.array_equal(out.logits[row], result.logits)
                    assert out.cycles_per_inference == result.cycles
            _, runs, ram, traffic = expected[batch - 1]
            got_ram, got_traffic = _ram_and_traffic(fused)
            assert got_ram == ram, (board.name, batch)
            assert [
                tuple(runs * count for count in region)
                for region in got_traffic
            ] == [
                tuple(batch * count for count in region)
                for region in traffic
            ], (board.name, batch)


def _edge_images():
    """RAM images that reach each load width's extremes."""
    rng = np.random.default_rng(21)
    return [
        bytes(rng.integers(0, 256, 64, dtype=np.uint8)),
        b"\xff" * 64,
        b"\x00" * 64,
        b"\x80\x00\x00\x80" * 16,
        b"\x7f\xff\xff\x7f" * 16,
    ]


class TestProductExactness:
    # Three terms of ``coef * load``: the bound is 3 * |coef| * max|load|.
    @pytest.mark.parametrize("load, coef, cast", [
        ("ldrb", 21931, "_F32"),            # 3 * 21931 * 255 < 2**24
        ("ldrb", 21932, "_F64"),
        ("ldrsh", -(1 << 31), "_F64"),
        ("ldr", 699050, "_F64"),            # 3 * 699050 * (2**32-1) < 2**53
        ("ldr", 699051, "_I64"),            # ... > 2**53: float64 rounds
    ])
    def test_bound_picks_the_product_type(self, load, coef, cast):
        asm = Assembler(f"bound-{load}-{coef}")
        asm.movi(Reg.R7, RAM)
        asm.movi(Reg.R2, coef)
        for k in range(3):
            getattr(asm, load)(Reg.R1, Reg.R7, 4 * k)
            asm.mul(Reg.R1, Reg.R1, Reg.R2)
            asm.add(Reg.R3, Reg.R3, Reg.R1)
        asm.str_(Reg.R3, Reg.R7, 32)
        asm.halt()
        program = asm.assemble()
        sp = translate_v2(program, MemoryMap.stm32(), COSTS)
        assert isinstance(sp, SpecializedProgram), sp
        assert f".astype({cast}) @ " in sp.source, sp.source
        _check_batch_fused(program, sp, _edge_images(), COSTS, cast)

    def test_lane_paths_beyond_the_layer_shape(self):
        """Forwarded narrow reloads, byte recomposition, subtraction and
        terms that cancel once spilled partials are inlined."""
        asm = Assembler("lane-paths")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R1, Reg.R7, 0)
        asm.ldrb(Reg.R2, Reg.R7, 1)
        asm.mul(Reg.R3, Reg.R1, Reg.R2)
        asm.lsri(Reg.R4, Reg.R3, 3)
        asm.sub(Reg.R5, Reg.R3, Reg.R4)
        asm.str_(Reg.R5, Reg.R7, 16)
        asm.ldrsb(Reg.R6, Reg.R7, 16)       # sign-extends a stored value
        asm.str_(Reg.R6, Reg.R7, 20)
        asm.strb(Reg.R1, Reg.R7, 40)        # one new byte in a word
        asm.ldr(Reg.R8, Reg.R7, 40)
        asm.str_(Reg.R8, Reg.R7, 44)
        asm.add(Reg.R8, Reg.R1, Reg.R2)     # spilled, reloaded, cancelled
        asm.str_(Reg.R8, Reg.R7, 24)
        asm.ldr(Reg.R9, Reg.R7, 24)
        asm.sub(Reg.R9, Reg.R9, Reg.R1)
        asm.sub(Reg.R9, Reg.R9, Reg.R2)
        asm.str_(Reg.R9, Reg.R7, 28)
        asm.str_(Reg.R0, Reg.R7, 24)
        asm.movi(Reg.R8, 0)
        asm.movi(Reg.R9, 0)
        asm.halt()
        program = asm.assemble()
        sp = translate_v2(program, MemoryMap.stm32(), COSTS)
        assert isinstance(sp, SpecializedProgram), sp
        for construct in ("^ 128) - 128", "4294967295 * g", "_np.zeros",
                          "& 255"):
            assert construct in sp.source, (construct, sp.source)
        _check_batch_fused(program, sp, _edge_images(), COSTS, "lanes")
