"""Shared machinery for kernel code generation.

Every generator produces a :class:`KernelImage`: an assembled program plus
the memory map in which its constant arrays have been placed (flash) and
its activation buffers reserved (RAM).  The host writes inputs with
:meth:`KernelImage.write_input`, runs the program on a CPU, and reads
outputs with :meth:`KernelImage.read_output` — the same handshake firmware
would use via a serial link.

Code-generation idioms (shared by all kernels, mirrored by the analytical
cost model):

- count-down loops: ``SUBSI counter, 1`` + ``BGT`` (4 cycles per iteration,
  2 on the final fall-through),
- branchless ReLU on the 32-bit accumulator:
  ``ASRI t1, acc, 31; MOVI t2, -1; EOR t1, t1, t2; AND acc, acc, t1``
  (4 cycles, no data-dependent branch — §4.1's static-control-flow rule),
- requantization: ``MUL acc, mult`` + ``ASRI acc, shift``; the per-neuron
  multiplier is loaded from a walked pointer (Neuro-C's ``w_j``), the
  per-layer multiplier lives in a register (TNN / dense baselines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.analysis.taint import verify_static_control_flow
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.cpu import ExecutionResult
from repro.mcu.fastpath import DEFAULT_ENGINE, make_cpu
from repro.mcu.isa import Assembler, Program, Reg
from repro.mcu.memory import Allocator, MemoryMap

#: Register conventions shared across kernels (see each generator).
ALL_REGS = list(Reg)


@dataclass
class KernelImage:
    """An assembled kernel plus its placed data."""

    program: Program
    memory: MemoryMap
    input_addr: int
    input_count: int
    input_width: int
    output_addr: int
    output_count: int
    output_width: int
    flash_data_bytes: int

    def write_input(self, x: np.ndarray) -> None:
        """Place one input vector into the RAM input buffer."""
        x = np.asarray(x)
        if x.shape != (self.input_count,):
            raise ConfigurationError(
                f"input shape {x.shape} != ({self.input_count},)"
            )
        dtype = {1: np.int8, 2: np.int16, 4: np.int32}[self.input_width]
        self.memory.write_array(self.input_addr, x.astype(dtype))

    def read_output(self) -> np.ndarray:
        """Read the kernel's output buffer as signed integers."""
        return self.memory.read_array(
            self.output_addr, self.output_count, self.output_width,
            signed=True,
        )

    def run(
        self,
        board: BoardProfile = STM32F072RB,
        engine: str = DEFAULT_ENGINE,
    ) -> ExecutionResult:
        """Execute once on a fresh engine bound to this image's memory.

        ``engine="fastpath-v2"`` (default) runs the content-specialized
        engine, ``engine="fastpath"`` the basic-block translating
        engine, and ``engine="interpreter"`` forces the reference CPU
        (see :mod:`repro.mcu.fastpath` for the bit-exactness contract).
        """
        return make_cpu(
            self.memory, costs=board.costs, engine=engine
        ).run(self.program)


def load_signed(asm: Assembler, rd: Reg, base: Reg, offset, width: int):
    """Width-dispatched signed load (LDRSB / LDRSH / LDR)."""
    if width == 1:
        asm.ldrsb(rd, base, offset)
    elif width == 2:
        asm.ldrsh(rd, base, offset)
    elif width == 4:
        asm.ldr(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported load width {width}")


def load_unsigned(asm: Assembler, rd: Reg, base: Reg, offset, width: int):
    """Width-dispatched unsigned load (LDRB / LDRH)."""
    if width == 1:
        asm.ldrb(rd, base, offset)
    elif width == 2:
        asm.ldrh(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported load width {width}")


def store(asm: Assembler, rd: Reg, base: Reg, offset, width: int) -> None:
    """Width-dispatched store (STRB / STRH / STR)."""
    if width == 1:
        asm.strb(rd, base, offset)
    elif width == 2:
        asm.strh(rd, base, offset)
    elif width == 4:
        asm.str_(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported store width {width}")


def emit_relu(asm: Assembler, acc: Reg, t1: Reg, t2: Reg) -> None:
    """Branchless ``acc = max(acc, 0)``: 4 cycles, no branches.

    ``t1``/``t2`` are scratch registers whose values are clobbered.
    """
    asm.asri(t1, acc, 31)   # t1 = 0xFFFFFFFF if acc < 0 else 0
    asm.movi(t2, -1)
    asm.eor(t1, t1, t2)     # t1 = 0 if acc < 0 else 0xFFFFFFFF
    asm.and_(acc, acc, t1)  # clears acc when negative

#: Cycle cost of :func:`emit_relu` (all four are 1-cycle ALU ops).
RELU_CYCLES = 4


def emit_saturate_upper(asm: Assembler, acc: Reg, t1: Reg, t2: Reg,
                        hi: int) -> None:
    """Branchless ``acc = min(acc, hi)``: 4 cycles, no branches.

    Requantized ReLU activations can exceed the output width on inputs
    slightly outside the calibration range; the upper clamp makes the
    stored activation saturate instead of wrap, with no data-dependent
    branch (the lower bound is already guaranteed by ReLU).
    """
    asm.subi(t1, acc, hi)    # t1 = acc - hi
    asm.asri(t2, t1, 31)     # t2 = all-ones iff acc < hi
    asm.and_(t1, t1, t2)     # t1 = min(acc - hi, 0)
    asm.addi(acc, t1, hi)    # acc = hi + min(acc - hi, 0)

#: Cycle cost of :func:`emit_saturate_upper`.
SAT_CYCLES = 4


def needs_saturation(relu: bool, has_mult: bool, act_out_width: int) -> bool:
    """Whether the epilogue clamps: requantized ReLU outputs narrower than
    the accumulator."""
    return relu and has_mult and act_out_width in (1, 2)


def assert_static_discipline(program: Program, memory: MemoryMap) -> Program:
    """Taint-verify a freshly assembled kernel; return it unchanged.

    Every generator funnels its program through this check with *all*
    writable regions tainted — the strongest form of the §4.1 discipline
    — so a kernel that could branch or address on input data never
    leaves code generation.  Raises
    :class:`~repro.errors.VerificationError` naming the offending
    instruction.
    """
    writable = [
        (region.base, region.end)
        for region in memory.regions if region.writable
    ]
    if writable:
        (base, end), *extra = writable
        verify_static_control_flow(
            program, base, end - base, tainted_regions=tuple(extra)
        ).require_clean()
    return program


def ram_allocator(memory: MemoryMap) -> Allocator:
    return Allocator(memory, "ram")


def flash_allocator(memory: MemoryMap) -> Allocator:
    return Allocator(memory, "flash")
