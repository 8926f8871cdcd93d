"""A miniature Thumb-like instruction set for the Cortex-M0 cost model.

The goal is not to emulate the real ARMv6-M encoding, but to provide an
instruction set whose *per-instruction cycle costs* mirror the Cortex-M0
pipeline closely enough that relative kernel latencies are faithful:

========================  =========================================
Category                  Cycles (Cortex-M0, zero flash wait states)
========================  =========================================
register ALU / move       1
multiply (``MULS``)       1 (STM32F0 ships the single-cycle multiplier)
load (any width)          2
store (any width)         2
branch, taken             3 (pipeline refill)
branch, not taken         1
========================  =========================================

Programs are built with :class:`Assembler`, which resolves symbolic labels
into instruction indices and returns an immutable :class:`Program`.

Operands are either :class:`Reg` instances or plain Python ints
(immediates).  Loads and stores accept a base register plus either an
immediate byte offset or an index register, matching the two Thumb
addressing modes the inference kernels need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AssemblyError


class Reg(enum.IntEnum):
    """Register file of the miniature ISA (13 general-purpose registers)."""

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12

    def __repr__(self) -> str:  # keeps disassembly listings compact
        return self.name.lower()


NUM_REGS = len(Reg)


class Op(enum.Enum):
    """Operation codes, grouped by cost category."""

    # -- moves / ALU (1 cycle) ------------------------------------------
    MOVI = "movi"    # rd <- imm
    MOV = "mov"      # rd <- rn
    ADD = "add"      # rd <- rn + rm
    ADDI = "addi"    # rd <- rn + imm
    SUB = "sub"      # rd <- rn - rm
    SUBI = "subi"    # rd <- rn - imm
    MUL = "mul"      # rd <- rn * rm (low 32 bits)
    LSLI = "lsli"    # rd <- rn << imm
    LSRI = "lsri"    # rd <- rn >> imm (logical)
    ASRI = "asri"    # rd <- rn >> imm (arithmetic)
    AND = "and"      # rd <- rn & rm
    ORR = "orr"      # rd <- rn | rm
    EOR = "eor"      # rd <- rn ^ rm
    SUBSI = "subsi"  # rd <- rn - imm, setting flags (Thumb SUBS)
    CMP = "cmp"      # flags(rn - rm)
    CMPI = "cmpi"    # flags(rn - imm)

    # -- memory (2 cycles) ----------------------------------------------
    LDR = "ldr"      # rd <- mem32[rn + off]
    LDRH = "ldrh"    # rd <- zext(mem16[rn + off])
    LDRSH = "ldrsh"  # rd <- sext(mem16[rn + off])
    LDRB = "ldrb"    # rd <- zext(mem8[rn + off])
    LDRSB = "ldrsb"  # rd <- sext(mem8[rn + off])
    STR = "str"      # mem32[rn + off] <- rd
    STRH = "strh"    # mem16[rn + off] <- rd (low half)
    STRB = "strb"    # mem8[rn + off]  <- rd (low byte)

    # -- control flow (1 or 3 cycles) -----------------------------------
    B = "b"          # unconditional branch (always taken: 3 cycles)
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"      # signed <
    BGE = "bge"      # signed >=
    BGT = "bgt"      # signed >
    BLE = "ble"      # signed <=

    # -- end of program ---------------------------------------------------
    HALT = "halt"


#: Opcodes that read memory.
LOAD_OPS = frozenset(
    {Op.LDR, Op.LDRH, Op.LDRSH, Op.LDRB, Op.LDRSB}
)
#: Opcodes that write memory.
STORE_OPS = frozenset({Op.STR, Op.STRH, Op.STRB})
#: Conditional and unconditional branches.
BRANCH_OPS = frozenset({Op.B, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BGT, Op.BLE})
#: Flag-reading branches only — every branch except the unconditional
#: ``B``.  The tier-2 specializer keys its flag-concreteness checks on
#: this set.
COND_BRANCH_OPS = frozenset(BRANCH_OPS - {Op.B})

#: Byte width accessed by each memory opcode.
ACCESS_WIDTH = {
    Op.LDR: 4,
    Op.STR: 4,
    Op.LDRH: 2,
    Op.LDRSH: 2,
    Op.STRH: 2,
    Op.LDRB: 1,
    Op.LDRSB: 1,
    Op.STRB: 1,
}

#: Memory opcodes that sign-extend the loaded value.
SIGNED_LOADS = frozenset({Op.LDRSH, Op.LDRSB})
#: Shifts by an immediate amount (``rd <- rn shift imm``).
SHIFT_OPS = frozenset({Op.LSLI, Op.LSRI, Op.ASRI})


@dataclass(frozen=True)
class Instr:
    """One assembled instruction.

    ``operands`` holds :class:`Reg` values and ints; for branches the single
    operand is the *resolved* target instruction index.  ``offset_is_reg``
    distinguishes the two load/store addressing modes.
    """

    op: Op
    operands: tuple
    offset_is_reg: bool = False

    def __repr__(self) -> str:
        parts = ", ".join(repr(o) for o in self.operands)
        return f"{self.op.value} {parts}"


@dataclass(frozen=True)
class Program:
    """An immutable assembled program plus its label table."""

    instructions: tuple[Instr, ...]
    labels: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Human-readable disassembly with label annotations."""
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"  {i:4d}  {instr!r}")
        return "\n".join(lines)

    def code_size_bytes(self) -> int:
        """Estimated Thumb code size: 2 bytes per 16-bit instruction."""
        return 2 * len(self.instructions)


class Assembler:
    """Builds a :class:`Program`, resolving labels to instruction indices.

    Example::

        asm = Assembler("sum_loop")
        asm.movi(Reg.R0, 0)
        asm.label("loop")
        ...
        asm.bne("loop")
        asm.halt()
        program = asm.assemble()
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instrs: list[tuple[Op, tuple, bool]] = []
        self._labels: dict[str, int] = {}

    # -- label management -------------------------------------------------

    def label(self, name: str) -> None:
        """Attach ``name`` to the next emitted instruction."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instrs)

    # -- raw emission ------------------------------------------------------

    def emit(self, op: Op, *operands, offset_is_reg: bool = False) -> None:
        self._instrs.append((op, tuple(operands), offset_is_reg))

    # -- ALU helpers --------------------------------------------------------

    def movi(self, rd: Reg, imm: int) -> None:
        self.emit(Op.MOVI, rd, int(imm))

    def mov(self, rd: Reg, rn: Reg) -> None:
        self.emit(Op.MOV, rd, rn)

    def add(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.ADD, rd, rn, rm)

    def addi(self, rd: Reg, rn: Reg, imm: int) -> None:
        self.emit(Op.ADDI, rd, rn, int(imm))

    def sub(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.SUB, rd, rn, rm)

    def subi(self, rd: Reg, rn: Reg, imm: int) -> None:
        self.emit(Op.SUBI, rd, rn, int(imm))

    def mul(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.MUL, rd, rn, rm)

    def lsli(self, rd: Reg, rn: Reg, imm: int) -> None:
        self.emit(Op.LSLI, rd, rn, int(imm))

    def lsri(self, rd: Reg, rn: Reg, imm: int) -> None:
        self.emit(Op.LSRI, rd, rn, int(imm))

    def asri(self, rd: Reg, rn: Reg, imm: int) -> None:
        self.emit(Op.ASRI, rd, rn, int(imm))

    def and_(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.AND, rd, rn, rm)

    def orr(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.ORR, rd, rn, rm)

    def eor(self, rd: Reg, rn: Reg, rm: Reg) -> None:
        self.emit(Op.EOR, rd, rn, rm)

    def subsi(self, rd: Reg, rn: Reg, imm: int) -> None:
        """Subtract immediate and set flags (count-down loop workhorse)."""
        self.emit(Op.SUBSI, rd, rn, int(imm))

    def cmp(self, rn: Reg, rm: Reg) -> None:
        self.emit(Op.CMP, rn, rm)

    def cmpi(self, rn: Reg, imm: int) -> None:
        self.emit(Op.CMPI, rn, int(imm))

    # -- memory helpers ------------------------------------------------------

    def _mem(self, op: Op, rd: Reg, base: Reg, offset) -> None:
        if isinstance(offset, Reg):
            self.emit(op, rd, base, offset, offset_is_reg=True)
        else:
            self.emit(op, rd, base, int(offset))

    def ldr(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.LDR, rd, base, offset)

    def ldrh(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.LDRH, rd, base, offset)

    def ldrsh(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.LDRSH, rd, base, offset)

    def ldrb(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.LDRB, rd, base, offset)

    def ldrsb(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.LDRSB, rd, base, offset)

    def str_(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.STR, rd, base, offset)

    def strh(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.STRH, rd, base, offset)

    def strb(self, rd: Reg, base: Reg, offset=0) -> None:
        self._mem(Op.STRB, rd, base, offset)

    # -- control flow ----------------------------------------------------------

    def b(self, target: str) -> None:
        self.emit(Op.B, target)

    def beq(self, target: str) -> None:
        self.emit(Op.BEQ, target)

    def bne(self, target: str) -> None:
        self.emit(Op.BNE, target)

    def blt(self, target: str) -> None:
        self.emit(Op.BLT, target)

    def bge(self, target: str) -> None:
        self.emit(Op.BGE, target)

    def bgt(self, target: str) -> None:
        self.emit(Op.BGT, target)

    def ble(self, target: str) -> None:
        self.emit(Op.BLE, target)

    def halt(self) -> None:
        self.emit(Op.HALT)

    # -- assembly --------------------------------------------------------------

    def assemble(self) -> Program:
        """Resolve branch labels and freeze the instruction stream."""
        resolved: list[Instr] = []
        for op, operands, offset_is_reg in self._instrs:
            if op in BRANCH_OPS:
                (target,) = operands
                if target not in self._labels:
                    raise AssemblyError(
                        f"unknown branch target {target!r} in {self.name!r}"
                    )
                operands = (self._labels[target],)
            elif op in SHIFT_OPS and operands[2] < 0:
                raise AssemblyError(
                    f"negative shift immediate {operands[2]} in "
                    f"{op.value} of {self.name!r}"
                )
            resolved.append(Instr(op, operands, offset_is_reg))
        if not resolved or resolved[-1].op is not Op.HALT:
            raise AssemblyError(
                f"program {self.name!r} must end with HALT"
            )
        return Program(tuple(resolved), dict(self._labels), self.name)
