"""Interpreter for the miniature ISA with Cortex-M0 cycle accounting.

The CPU executes a :class:`~repro.mcu.isa.Program` against a
:class:`~repro.mcu.memory.MemoryMap` and charges every instruction its
Cortex-M0 cost from a :class:`CycleCosts` table.  Flags follow the ARM NZCV
semantics for ``CMP`` so that signed conditional branches behave exactly as
the hardware would.

The interpreter is intentionally slow-but-exact: benchmarks use the
analytical cost model in :mod:`repro.kernels.cost`, and the test suite uses
this interpreter to prove the analytical model right (both outputs and
cycle counts must match on small kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.mcu.isa import (
    ACCESS_WIDTH,
    BRANCH_OPS,
    LOAD_OPS,
    NUM_REGS,
    SIGNED_LOADS,
    STORE_OPS,
    Op,
    Program,
    Reg,
)
from repro.mcu.memory import MemoryMap

_MASK32 = 0xFFFF_FFFF


def _to_signed(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value & 0x8000_0000 else value


def subtract_flags(lhs: int, rhs: int) -> tuple[bool, bool, bool]:
    """NZV flags of the 32-bit subtraction ``lhs - rhs`` (signed operands).

    Shared between the interpreter and the static analyser's abstract
    executor so both resolve conditional branches identically.
    """
    diff = lhs - rhs
    flag_z = diff == 0
    # Signed overflow of the 32-bit subtraction; N is the sign bit of the
    # wrapped result (matches hardware NZCV).
    flag_v = not (-(1 << 31) <= diff < (1 << 31))
    flag_n = bool((diff & _MASK32) & 0x8000_0000)
    return flag_n, flag_z, flag_v


@dataclass(frozen=True)
class CycleCosts:
    """Per-category instruction costs in CPU cycles.

    Defaults model a Cortex-M0 with the single-cycle multiplier (as on the
    STM32F072) and zero flash wait states (8 MHz operation).  ``fetch_extra``
    charges additional cycles on *every* instruction to model flash wait
    states at higher clock frequencies.
    """

    alu: int = 1
    mul: int = 1
    load: int = 2
    store: int = 2
    branch_taken: int = 3
    branch_not_taken: int = 1
    halt: int = 1
    fetch_extra: int = 0

    def cost_of(self, op: Op, taken: bool = False) -> int:
        if op in LOAD_OPS:
            base = self.load
        elif op in STORE_OPS:
            base = self.store
        elif op in BRANCH_OPS:
            base = self.branch_taken if taken else self.branch_not_taken
        elif op is Op.MUL:
            base = self.mul
        elif op is Op.HALT:
            base = self.halt
        else:
            base = self.alu
        return base + self.fetch_extra


@dataclass
class ExecutionResult:
    """Outcome of one :meth:`CPU.run` call."""

    cycles: int
    instructions: int
    registers: list[int]
    op_counts: dict[Op, int] = field(default_factory=dict)

    def reg(self, r: Reg) -> int:
        """Register value as a signed 32-bit integer."""
        return _to_signed(self.registers[r])


#: Op enumeration order used for the index-by-op count/cost vectors below.
_OPS = tuple(Op)
_OP_INDEX = {op: i for i, op in enumerate(_OPS)}
#: Per-cost-table (plain, taken) cycle vectors indexed by op ordinal, so
#: the hot loop charges cycles with one list index instead of a
#: ``cost_of`` call per instruction.  ``CycleCosts`` is frozen/hashable.
_COST_VECTORS: dict[CycleCosts, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _cost_vectors(
    costs: CycleCosts,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    vectors = _COST_VECTORS.get(costs)
    if vectors is None:
        plain = tuple(costs.cost_of(op) for op in _OPS)
        taken = tuple(costs.cost_of(op, taken=True) for op in _OPS)
        vectors = _COST_VECTORS[costs] = (plain, taken)
    return vectors


class CPU:
    """Executes programs, charging cycles per the cost table."""

    def __init__(
        self,
        memory: MemoryMap,
        costs: CycleCosts | None = None,
        max_instructions: int = 200_000_000,
    ) -> None:
        self.memory = memory
        self.costs = costs or CycleCosts()
        self.max_instructions = max_instructions

    def run(
        self, program: Program, registers: dict[Reg, int] | None = None
    ) -> ExecutionResult:
        """Execute ``program`` until ``HALT``; return cycles and final state."""
        regs = [0] * NUM_REGS
        for r, value in (registers or {}).items():
            regs[r] = int(value) & _MASK32

        flag_n = flag_z = flag_v = False
        pc = 0
        cycles = 0
        executed = 0
        counts = [0] * len(_OPS)
        op_index = _OP_INDEX
        plain_cost, taken_cost = _cost_vectors(self.costs)
        instructions = program.instructions
        n_instructions = len(instructions)
        memory = self.memory

        while True:
            if executed >= self.max_instructions:
                raise ExecutionError(
                    f"program {program.name!r} exceeded "
                    f"{self.max_instructions} instructions"
                )
            if not 0 <= pc < n_instructions:
                # Checked explicitly: a negative pc would index from the
                # end of the program instead of failing.
                raise ExecutionError(
                    f"pc {pc} out of range in {program.name!r}"
                )
            instr = instructions[pc]
            executed += 1
            op = instr.op
            op_ordinal = op_index[op]
            counts[op_ordinal] += 1
            ops = instr.operands
            taken = False
            next_pc = pc + 1

            if op is Op.MOVI:
                regs[ops[0]] = ops[1] & _MASK32
            elif op is Op.MOV:
                regs[ops[0]] = regs[ops[1]]
            elif op is Op.ADD:
                regs[ops[0]] = (regs[ops[1]] + regs[ops[2]]) & _MASK32
            elif op is Op.ADDI:
                regs[ops[0]] = (regs[ops[1]] + ops[2]) & _MASK32
            elif op is Op.SUB:
                regs[ops[0]] = (regs[ops[1]] - regs[ops[2]]) & _MASK32
            elif op is Op.SUBI:
                regs[ops[0]] = (regs[ops[1]] - ops[2]) & _MASK32
            elif op is Op.MUL:
                product = _to_signed(regs[ops[1]]) * _to_signed(regs[ops[2]])
                regs[ops[0]] = product & _MASK32
            elif op is Op.LSLI:
                regs[ops[0]] = (regs[ops[1]] << ops[2]) & _MASK32
            elif op is Op.LSRI:
                regs[ops[0]] = (regs[ops[1]] & _MASK32) >> ops[2]
            elif op is Op.ASRI:
                regs[ops[0]] = (_to_signed(regs[ops[1]]) >> ops[2]) & _MASK32
            elif op is Op.AND:
                regs[ops[0]] = regs[ops[1]] & regs[ops[2]]
            elif op is Op.ORR:
                regs[ops[0]] = regs[ops[1]] | regs[ops[2]]
            elif op is Op.EOR:
                regs[ops[0]] = regs[ops[1]] ^ regs[ops[2]]
            elif op is Op.SUBSI:
                lhs = _to_signed(regs[ops[1]])
                rhs = int(ops[2])
                regs[ops[0]] = (lhs - rhs) & _MASK32
                flag_n, flag_z, flag_v = subtract_flags(lhs, rhs)
            elif op is Op.CMP or op is Op.CMPI:
                lhs = _to_signed(regs[ops[0]])
                rhs = _to_signed(regs[ops[1]]) if op is Op.CMP else int(ops[1])
                flag_n, flag_z, flag_v = subtract_flags(lhs, rhs)
            elif op in LOAD_OPS or op in STORE_OPS:
                base = regs[ops[1]]
                if instr.offset_is_reg:
                    addr = (base + regs[ops[2]]) & _MASK32
                else:
                    addr = (base + ops[2]) & _MASK32
                width = ACCESS_WIDTH[op]
                if op in LOAD_OPS:
                    regs[ops[0]] = (
                        memory.load(addr, width, op in SIGNED_LOADS) & _MASK32
                    )
                else:
                    memory.store(addr, width, regs[ops[0]])
            elif op in BRANCH_OPS:
                taken = _branch_taken(op, flag_n, flag_z, flag_v)
                if taken:
                    next_pc = ops[0]
            elif op is Op.HALT:
                cycles += plain_cost[op_ordinal]
                op_counts = {
                    _OPS[i]: c for i, c in enumerate(counts) if c
                }
                # Return a *copy*: callers must not be able to mutate
                # result registers through a reference the CPU retains.
                return ExecutionResult(
                    cycles, executed, list(regs), op_counts
                )
            else:  # pragma: no cover - all opcodes handled above
                raise ExecutionError(f"unhandled opcode {op!r}")

            cycles += taken_cost[op_ordinal] if taken else plain_cost[op_ordinal]
            pc = next_pc


def branch_taken(op: Op, n: bool, z: bool, v: bool) -> bool:
    """Whether branch ``op`` is taken under NZV flags (public helper)."""
    return _branch_taken(op, n, z, v)


def _branch_taken(op: Op, n: bool, z: bool, v: bool) -> bool:
    if op is Op.B:
        return True
    if op is Op.BEQ:
        return z
    if op is Op.BNE:
        return not z
    if op is Op.BLT:
        return n != v
    if op is Op.BGE:
        return n == v
    if op is Op.BGT:
        return (not z) and n == v
    if op is Op.BLE:
        return z or n != v
    raise ExecutionError(f"not a branch: {op!r}")  # pragma: no cover
