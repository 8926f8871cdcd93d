"""Differential harness: the fastpath engine vs the reference interpreter.

The fastpath contract is *bit-exactness* — same registers, memory bytes,
cycles, instruction counts, op counts, and per-region traffic counters as
:class:`~repro.mcu.cpu.CPU` on every accepted program, including error
paths.  This file enforces it with a seeded random-program fuzzer
(200+ generated programs covering ALU/flag/branch/memory interactions,
count-down loops, forward skips, and dead code), plus targeted tests for
exception exactness, translation caching, fallback, and per-block cycle
attribution.
"""

import os

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ExecutionError,
    MemoryMapError,
)
from repro.mcu.board import BOARD_PROFILES, STM32F072RB
from repro.mcu.cpu import CPU, CycleCosts
from repro.mcu.fastpath import (
    DEFAULT_ENGINE,
    ENGINES,
    FastCPU,
    SpecializedCPU,
    clear_translation_cache,
    make_cpu,
    translate,
    translate_v2,
    translation_cache_stats,
    why_declined,
)
from repro.mcu.isa import NUM_REGS, Assembler, Instr, Op, Program, Reg
from repro.mcu.memory import MemoryMap
from repro.mcu.profiler import Profiler

RAM = 0x2000_0000
FLASH = 0x0800_0000
#: Fuzzer working set in RAM bytes (all generated addresses stay inside).
SCRATCH = 256

#: Board the 220-seed fuzz runs against — CI matrixes over all four
#: profiles via REPRO_FUZZ_BOARD; the default keeps tier-1 runs on the
#: paper's M0 (byte-identical to the historical harness).
FUZZ_BOARD = BOARD_PROFILES[
    os.environ.get("REPRO_FUZZ_BOARD", STM32F072RB.name)
]

#: 32-bit boundary constants the fuzzer seeds registers/immediates with.
BOUNDARY = (
    0, 1, 2, -1, -2, 255, -128, 0x7FFF_FFFF, -(1 << 31), 0x8000_0000,
    0xFFFF_FFFF, 0x1_0000, -0x8000,
)


def run_both(program, registers=None, costs=None, ram_image=None,
             board=None):
    """Run on every engine with identical initial state; compare all.

    With ``board`` the program runs against that profile's memory map
    and (unless ``costs`` overrides it) cost table — the per-board
    exactness contract.  Default: the historical STM32 harness.
    """
    if board is not None and costs is None:
        costs = board.costs
    results = {}
    memories = {}
    for engine in ENGINES:
        memory = (
            board.make_memory() if board is not None else MemoryMap.stm32()
        )
        if ram_image is not None:
            memory.region("ram").data[: len(ram_image)] = ram_image
        cpu = make_cpu(memory, costs=costs, engine=engine)
        results[engine] = cpu.run(program, dict(registers or {}))
        if engine == "fastpath":
            assert isinstance(cpu, FastCPU)
            assert cpu.last_engine == "fastpath", (
                f"translator declined: "
                f"{why_declined(program, memory, costs)}"
            )
        memories[engine] = memory
    ref = results["interpreter"]
    for engine in ENGINES:
        if engine == "interpreter":
            continue
        fast = results[engine]
        assert fast.cycles == ref.cycles, engine
        assert fast.instructions == ref.instructions, engine
        assert fast.registers == ref.registers, engine
        assert fast.op_counts == ref.op_counts, engine
        for region_ref, region_fast in zip(
            memories["interpreter"].regions, memories[engine].regions
        ):
            assert bytes(region_fast.data) == bytes(region_ref.data)
            assert region_fast.loads == region_ref.loads
            assert region_fast.stores == region_ref.stores
            assert region_fast.bytes_loaded == region_ref.bytes_loaded
            assert region_fast.bytes_stored == region_ref.bytes_stored
    return ref


# -- the fuzzer -----------------------------------------------------------

WORK = (Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)
PTR = Reg.R7        # RAM base pointer, never clobbered
COUNTER = Reg.R6    # loop counter, written only by loop scaffolding
OFFSET = Reg.R8     # register-offset operand for reg-indexed accesses

_LOADS = ("ldr", "ldrh", "ldrsh", "ldrb", "ldrsb")
_STORES = ("str_", "strh", "strb")
_WIDTH = {"ldr": 4, "ldrh": 2, "ldrsh": 2, "ldrb": 1, "ldrsb": 1,
          "str_": 4, "strh": 2, "strb": 1}
_COND_BRANCHES = ("beq", "bne", "blt", "bge", "bgt", "ble")


def _emit_random_op(asm, rng, label_maker):
    """One random instruction (or short idiom) over the work registers."""
    choice = rng.integers(0, 10)
    rd = WORK[rng.integers(0, len(WORK))]
    rn = WORK[rng.integers(0, len(WORK))]
    rm = WORK[rng.integers(0, len(WORK))]
    imm = int(BOUNDARY[rng.integers(0, len(BOUNDARY))])
    if choice == 0:
        asm.movi(rd, imm)
    elif choice == 1:
        getattr(asm, rng.choice(("add", "sub", "mul", "and_", "orr",
                                 "eor")))(rd, rn, rm)
    elif choice == 2:
        getattr(asm, rng.choice(("addi", "subi")))(rd, rn, imm)
    elif choice == 3:
        getattr(asm, rng.choice(("lsli", "lsri", "asri")))(
            rd, rn, int(rng.integers(0, 32))
        )
    elif choice == 4:
        asm.mov(rd, rn)
    elif choice == 5:
        asm.subsi(rd, rn, imm)
    elif choice == 6:
        asm.cmp(rn, rm) if rng.integers(0, 2) else asm.cmpi(rn, imm)
    elif choice == 7:   # aligned load at an immediate offset
        name = rng.choice(_LOADS)
        width = _WIDTH[name]
        offset = int(rng.integers(0, SCRATCH // width)) * width
        getattr(asm, name)(rd, PTR, offset)
    elif choice == 8:   # store at an immediate offset
        name = rng.choice(_STORES)
        width = _WIDTH[name]
        offset = int(rng.integers(0, SCRATCH // width)) * width
        getattr(asm, name)(rd, PTR, offset)
    else:               # register-offset access
        name = rng.choice(_LOADS + _STORES)
        width = _WIDTH[name]
        asm.movi(OFFSET, int(rng.integers(0, SCRATCH // width)) * width)
        getattr(asm, name)(rd, PTR, OFFSET)


def _random_program(seed, ram_base=RAM):
    """A random, guaranteed-terminating program exercising the full ISA.

    ``ram_base`` is baked into the generated code (the scratch pointer
    is a MOVI immediate), so per-board fuzzing regenerates programs
    against each board's own RAM base.
    """
    rng = np.random.default_rng(seed)
    asm = Assembler(f"fuzz-{seed}")
    labels = iter(range(1000))

    def label_maker():
        return f"L{next(labels)}"

    asm.movi(PTR, ram_base)
    for segment in range(int(rng.integers(2, 5))):
        kind = rng.integers(0, 4)
        if kind == 0:      # count-down loop, 1..4 iterations
            top = label_maker()
            asm.movi(COUNTER, int(rng.integers(1, 5)))
            asm.label(top)
            for _ in range(int(rng.integers(2, 7))):
                _emit_random_op(asm, rng, label_maker)
            asm.subsi(COUNTER, COUNTER, 1)
            asm.bgt(top)
        elif kind == 1:    # data-dependent forward skip
            skip = label_maker()
            _emit_random_op(asm, rng, label_maker)
            if rng.integers(0, 2):
                asm.cmpi(WORK[rng.integers(0, len(WORK))],
                         int(BOUNDARY[rng.integers(0, len(BOUNDARY))]))
            else:
                asm.cmp(WORK[rng.integers(0, len(WORK))],
                        WORK[rng.integers(0, len(WORK))])
            getattr(asm, rng.choice(_COND_BRANCHES))(skip)
            for _ in range(int(rng.integers(1, 5))):
                _emit_random_op(asm, rng, label_maker)
            asm.label(skip)
        elif kind == 2:    # unconditional jump over dead code
            end = label_maker()
            asm.b(end)
            for _ in range(int(rng.integers(1, 4))):
                _emit_random_op(asm, rng, label_maker)
            asm.label(end)
        else:              # straight-line body
            for _ in range(int(rng.integers(3, 9))):
                _emit_random_op(asm, rng, label_maker)
    asm.halt()
    return asm.assemble()


def _random_state(seed):
    rng = np.random.default_rng(seed + 10_000)
    registers = {
        reg: int(BOUNDARY[rng.integers(0, len(BOUNDARY))])
        for reg in WORK
    }
    ram_image = bytes(rng.integers(0, 256, SCRATCH, dtype=np.uint8))
    costs = (
        CycleCosts(fetch_extra=1) if seed % 7 == 0
        else CycleCosts(load=3, store=3, branch_taken=4) if seed % 11 == 0
        else None
    )
    return registers, ram_image, costs


class TestFuzzDifferential:
    """ISSUE 3 acceptance: >= 200 seeded random programs, bit-exact.

    Runs against ``FUZZ_BOARD`` (REPRO_FUZZ_BOARD, default the M0):
    programs are regenerated against the board's RAM base and executed
    with the board's cost table, so CI can sweep all four profiles.
    """

    @pytest.mark.parametrize("seed", range(220))
    def test_random_program_bit_exact(self, seed):
        program = _random_program(seed, FUZZ_BOARD.ram_base)
        registers, ram_image, costs = _random_state(seed)
        run_both(
            program, registers=registers, costs=costs,
            ram_image=ram_image, board=FUZZ_BOARD,
        )

    def test_fuzzer_reaches_every_opcode(self):
        seen = set()
        for seed in range(220):
            for instr in _random_program(seed).instructions:
                seen.add(instr.op)
        assert seen == set(Op), f"missing: {set(Op) - seen}"


class TestCrossBoardExactness:
    """Tentpole acceptance: the engine-agreement contract holds on every
    board profile — non-ARM memory bases, wait states, slow multipliers
    and all.  A tier-1-sized subset of the fuzz seeds; CI runs the full
    220 per board via REPRO_FUZZ_BOARD."""

    @pytest.mark.parametrize(
        "board", BOARD_PROFILES.values(), ids=tuple(BOARD_PROFILES)
    )
    @pytest.mark.parametrize("seed", range(0, 60, 4))
    def test_every_board_bit_exact(self, board, seed):
        program = _random_program(seed, board.ram_base)
        registers, ram_image, _ = _random_state(seed)
        run_both(
            program, registers=registers, ram_image=ram_image, board=board
        )

    def test_cost_tables_actually_differ_across_boards(self):
        # The same program must be priced differently per board — the
        # signal the heterogeneous router runs on.
        program = _random_program(3, RAM)
        registers, ram_image, _ = _random_state(3)
        cycles = {
            name: run_both(
                program, registers=registers, ram_image=ram_image,
                board=board,
            ).cycles
            for name, board in BOARD_PROFILES.items()
            if board.ram_base == RAM
        }
        assert len(set(cycles.values())) > 1, cycles


class TestExceptionExactness:
    """Error paths must match: type, message, and prior side effects."""

    def _raises_identically(self, build, exc_type, registers=None):
        outcomes = {}
        memories = {}
        for engine in ENGINES:
            asm = Assembler("err")
            build(asm)
            asm.halt()
            memory = MemoryMap.stm32()
            cpu = make_cpu(memory, engine=engine)
            with pytest.raises(exc_type) as info:
                cpu.run(asm.assemble(), dict(registers or {}))
            outcomes[engine] = str(info.value)
            memories[engine] = memory
        assert outcomes["fastpath"] == outcomes["interpreter"]
        for ref, fast in zip(
            memories["interpreter"].regions, memories["fastpath"].regions
        ):
            assert bytes(fast.data) == bytes(ref.data)
            assert fast.loads == ref.loads
            assert fast.stores == ref.stores
            assert fast.bytes_loaded == ref.bytes_loaded
            assert fast.bytes_stored == ref.bytes_stored

    def test_unmapped_load(self):
        def build(asm):
            asm.movi(Reg.R7, RAM)
            asm.ldr(Reg.R0, Reg.R7, 0)        # counted on both engines
            asm.movi(Reg.R1, 0x1000_0000)
            asm.ldr(Reg.R2, Reg.R1, 4)        # unmapped
        self._raises_identically(build, MemoryMapError)

    def test_unmapped_store(self):
        def build(asm):
            asm.movi(Reg.R7, RAM)
            asm.str_(Reg.R0, Reg.R7, 0)
            asm.movi(Reg.R1, 0x1000_0000)
            asm.str_(Reg.R2, Reg.R1, 0)
        self._raises_identically(build, MemoryMapError)

    def test_store_to_flash_is_read_only(self):
        def build(asm):
            asm.movi(Reg.R1, FLASH)
            asm.str_(Reg.R0, Reg.R1, 8)
        self._raises_identically(build, MemoryMapError)

    def test_access_straddling_region_end(self):
        # A word load whose last byte falls past the region boundary must
        # be unmapped on both engines (MemoryMap requires full containment).
        ram_end = MemoryMap.stm32().region("ram").end

        def build(asm):
            asm.movi(Reg.R1, ram_end - 2)
            asm.ldr(Reg.R0, Reg.R1, 0)
        self._raises_identically(build, MemoryMapError)

    def test_instruction_limit_message_matches(self):
        asm = Assembler("spin")
        asm.movi(Reg.R0, 1 << 20)
        asm.label("top")
        asm.subsi(Reg.R0, Reg.R0, 1)
        asm.bgt("top")
        asm.halt()
        program = asm.assemble()
        messages = {}
        for engine in ENGINES:
            cpu = make_cpu(
                MemoryMap.stm32(), engine=engine, max_instructions=1_000
            )
            with pytest.raises(ExecutionError) as info:
                cpu.run(program)
            messages[engine] = str(info.value)
        assert messages["fastpath"] == messages["interpreter"]
        assert "exceeded 1000 instructions" in messages["fastpath"]

    def test_limit_boundary_completes_on_both(self):
        # Exactly max_instructions executed -> both engines complete.
        asm = Assembler("exact")
        asm.movi(Reg.R0, 3)
        asm.label("top")
        asm.subsi(Reg.R0, Reg.R0, 1)
        asm.bgt("top")
        asm.halt()
        program = asm.assemble()      # executes 1 + 3*2 + 1 = 8
        for engine in ENGINES:
            result = make_cpu(
                MemoryMap.stm32(), engine=engine, max_instructions=8
            ).run(program)
            assert result.instructions == 8
        for engine in ENGINES:
            with pytest.raises(ExecutionError):
                make_cpu(
                    MemoryMap.stm32(), engine=engine, max_instructions=7
                ).run(program)


class TestEngineSelection:
    def test_make_cpu_engines(self):
        memory = MemoryMap.stm32()
        assert isinstance(make_cpu(memory, engine="fastpath"), FastCPU)
        assert type(make_cpu(memory, engine="interpreter")) is CPU

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            make_cpu(MemoryMap.stm32(), engine="jit")

    def test_board_make_cpu_uses_board_costs(self):
        memory = STM32F072RB.make_memory()
        cpu = STM32F072RB.make_cpu(memory)
        assert isinstance(cpu, SpecializedCPU)    # the default engine
        assert cpu.costs == STM32F072RB.costs
        interp = STM32F072RB.make_cpu(memory, engine="interpreter")
        assert type(interp) is CPU


class TestFallback:
    def test_oversized_program_falls_back_to_interpreter(self):
        asm = Assembler("huge")
        for _ in range(60_001):
            asm.movi(Reg.R0, 1)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        cpu = FastCPU(memory)
        result = cpu.run(program)
        assert cpu.last_engine == "interpreter"
        assert cpu.translation(program) is None
        assert result.instructions == 60_002
        reason = why_declined(program, memory)
        assert reason is not None and "translation cap" in reason

    def test_structurally_invalid_program_declined(self):
        # Ends in a non-branch: the CFG validator rejects it, the
        # translator declines, and the interpreter fallback raises the
        # interpreter's own pc-out-of-range error.
        program = Program(
            (Instr(Op.MOVI, (Reg.R0, 1)), Instr(Op.ADDI, (Reg.R1, Reg.R0, 2))),
            {}, "falls-off",
        )
        memory = MemoryMap.stm32()
        assert translate(program, memory) is None
        assert "cfg:" in why_declined(program, memory)
        cpu = FastCPU(memory)
        with pytest.raises(ExecutionError, match="out of range"):
            cpu.run(program)
        assert cpu.last_engine == "interpreter"


class TestTranslationCache:
    def test_identical_programs_share_one_translation(self):
        clear_translation_cache()
        asm = Assembler("cached")
        asm.movi(Reg.R0, 7)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        first = translate(program, memory)
        # A *distinct but byte-identical* program object hits the cache.
        asm2 = Assembler("cached")
        asm2.movi(Reg.R0, 7)
        asm2.halt()
        second = translate(asm2.assemble(), memory)
        assert first is second
        stats = translation_cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_cost_table_is_part_of_the_key(self):
        asm = Assembler("keyed")
        asm.movi(Reg.R0, 1)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        default = translate(program, memory)
        wait_states = translate(program, memory, CycleCosts(fetch_extra=1))
        assert default is not wait_states
        charged = [
            tp.fn(memory, [0] * NUM_REGS, 10, [0] * tp.n_blocks)[0]
            for tp in (default, wait_states)
        ]
        # One extra fetch cycle for each of the two instructions.
        assert charged[1] == charged[0] + 2

    def test_cost_tables_distinct_entries_in_both_tiers(self):
        """ISSUE-9 satellite: one program under two cost tables must
        yield distinct v1 AND v2 cache entries, each with that board's
        exact cycle total — a heterogeneous fleet's shared cache can
        never cross-serve a stale entry between board classes."""
        clear_translation_cache()
        asm = Assembler("per-board")
        asm.movi(Reg.R0, 5)
        asm.movi(Reg.R1, 7)
        asm.mul(Reg.R2, Reg.R0, Reg.R1)
        asm.addi(Reg.R2, Reg.R2, 1)
        asm.halt()
        program = asm.assemble()
        m0_costs = STM32F072RB.costs
        riscv_costs = BOARD_PROFILES["FE310-G002"].costs

        memory = MemoryMap.stm32()
        v1_m0 = translate(program, memory, m0_costs)
        v1_rv = translate(program, memory, riscv_costs)
        assert v1_m0 is not None and v1_rv is not None
        assert v1_m0 is not v1_rv
        v2_m0 = translate_v2(program, memory, m0_costs)
        v2_rv = translate_v2(program, memory, riscv_costs)
        assert v2_m0 is not None and v2_rv is not None
        assert v2_m0 is not v2_rv

        stats = translation_cache_stats()
        assert stats["v1"]["entries"] == 2
        assert stats["v2"]["entries"] == 2

        # Each entry carries its own board's exact total: the slow
        # RISC-V multiplier and flash wait states price the same five
        # instructions higher, and both tiers agree with the
        # interpreter under each table.
        assert v2_m0.cycles != v2_rv.cycles
        for costs, sp in ((m0_costs, v2_m0), (riscv_costs, v2_rv)):
            ref = make_cpu(
                MemoryMap.stm32(), costs=costs, engine="interpreter"
            ).run(program)
            assert sp.cycles == ref.cycles
            run_both(program, costs=costs)

    def test_offset_is_reg_distinguishes_programs(self):
        # Same operand tuple shapes, different addressing mode: the cache
        # key and the generated code must both honour offset_is_reg.
        imm = Program(
            (
                Instr(Op.MOVI, (Reg.R1, RAM)),
                Instr(Op.MOVI, (Reg.R2, 4)),
                Instr(Op.LDRB, (Reg.R0, Reg.R1, 2)),
                Instr(Op.HALT, ()),
            ),
            {}, "addr",
        )
        reg = Program(
            (
                Instr(Op.MOVI, (Reg.R1, RAM)),
                Instr(Op.MOVI, (Reg.R2, 4)),
                Instr(Op.LDRB, (Reg.R0, Reg.R1, Reg.R2), offset_is_reg=True),
                Instr(Op.HALT, ()),
            ),
            {}, "addr",
        )
        ram_image = bytes([10, 11, 12, 13, 14, 15])
        ref_imm = run_both(imm, ram_image=ram_image)
        ref_reg = run_both(reg, ram_image=ram_image)
        assert ref_imm.registers[0] == 12   # offset 2
        assert ref_reg.registers[0] == 14   # offset R2 = 4


class TestRegisterCopySemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_registers_are_not_aliased(self, engine):
        asm = Assembler("copy")
        asm.movi(Reg.R0, 123)
        asm.halt()
        program = asm.assemble()
        cpu = make_cpu(MemoryMap.stm32(), engine=engine)
        first = cpu.run(program)
        first.registers[0] = 999_999
        second = cpu.run(program)
        assert second.registers[0] == 123
        assert first.registers is not second.registers

    @pytest.mark.parametrize("engine", ENGINES)
    def test_numpy_register_inputs_are_coerced(self, engine):
        asm = Assembler("np-in")
        asm.addi(Reg.R0, Reg.R1, 1)
        asm.halt()
        program = asm.assemble()
        cpu = make_cpu(MemoryMap.stm32(), engine=engine)
        result = cpu.run(program, {Reg.R1: np.int32(-5)})
        assert result.reg(Reg.R0) == -4
        assert type(result.registers[0]) is int


class TestBlockAttribution:
    """Per-block attribution from the abstract trace, on ``FUZZ_BOARD``
    (CI sweeps all four profiles via REPRO_FUZZ_BOARD): each board's
    cost table prices the trace's blocks, checked against every
    engine's measured cycles."""

    def _profiler(self, engine=DEFAULT_ENGINE):
        return Profiler(FUZZ_BOARD, FUZZ_BOARD.make_memory(), engine=engine)

    def _loop_program(self):
        asm = Assembler("attr")
        asm.movi(Reg.R0, 0)
        asm.movi(Reg.R1, 6)
        asm.label("top")
        asm.addi(Reg.R0, Reg.R0, 2)
        asm.subsi(Reg.R1, Reg.R1, 1)
        asm.bgt("top")
        asm.halt()
        return asm.assemble()

    def test_block_cycles_sum_to_total(self):
        program = self._loop_program()
        result, blocks = self._profiler().profile_blocks(program)
        assert sum(b.cycles for b in blocks) == result.cycles
        assert sum(b.executions * (b.end - b.start + 1) for b in blocks) \
            == result.instructions
        by_id = {b.block_id: b for b in blocks}
        assert by_id[0].executions == 1     # entry
        assert by_id[1].executions == 6     # loop body
        assert by_id[1].taken == 5          # back edge taken 5 of 6 times
        assert by_id[2].executions == 1     # halt block

    @pytest.mark.parametrize("engine", ENGINES)
    def test_attribution_on_every_engine(self, engine):
        profiler = self._profiler(engine)
        result, blocks = profiler.profile_blocks(self._loop_program())
        assert sum(b.cycles for b in blocks) == result.cycles
        assert [b.executions for b in blocks] == [1, 6, 1]

    def test_data_dependent_program_has_no_attribution(self):
        # The loop bound is read from RAM: every input takes its own
        # path, so no single trace covers the program.
        asm = Assembler("input-bound")
        asm.movi(Reg.R7, FUZZ_BOARD.ram_base)
        asm.ldrb(Reg.R1, Reg.R7, 0)
        asm.label("top")
        asm.subsi(Reg.R1, Reg.R1, 1)
        asm.bgt("top")
        asm.halt()
        with pytest.raises(
            ConfigurationError, match="data-dependent control flow"
        ):
            self._profiler().profile_blocks(asm.assemble())

    def test_profiler_engines_agree_on_latency(self):
        program = self._loop_program()
        reports = {
            engine: self._profiler(engine).measure(program, runs=3)
            for engine in ENGINES
        }
        assert reports["fastpath"] == reports["interpreter"]
        assert reports["fastpath"].deterministic
