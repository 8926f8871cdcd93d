"""Assembler and instruction-set invariants."""

import pytest

from repro.errors import AssemblyError
from repro.mcu.isa import (
    ACCESS_WIDTH,
    BRANCH_OPS,
    LOAD_OPS,
    SIGNED_LOADS,
    STORE_OPS,
    Assembler,
    Op,
    Reg,
)


def _trivial_program():
    asm = Assembler("trivial")
    asm.movi(Reg.R0, 7)
    asm.halt()
    return asm.assemble()


class TestAssembler:
    def test_assemble_resolves_labels_to_indices(self):
        asm = Assembler("loop")
        asm.movi(Reg.R0, 3)
        asm.label("top")
        asm.subsi(Reg.R0, Reg.R0, 1)
        asm.bgt("top")
        asm.halt()
        program = asm.assemble()
        branch = program.instructions[2]
        assert branch.op is Op.BGT
        assert branch.operands == (1,)  # index of the SUBSI

    def test_unknown_label_raises(self):
        asm = Assembler("bad")
        asm.b("nowhere")
        asm.halt()
        with pytest.raises(AssemblyError, match="nowhere"):
            asm.assemble()

    def test_duplicate_label_raises(self):
        asm = Assembler("dup")
        asm.label("x")
        asm.movi(Reg.R0, 0)
        with pytest.raises(AssemblyError, match="duplicate"):
            asm.label("x")

    @pytest.mark.parametrize("shift", ["lsli", "lsri", "asri"])
    def test_negative_shift_immediate_raises(self, shift):
        # Rejected before it runs: every engine would otherwise die on
        # Python's untyped "negative shift count".
        asm = Assembler("bad-shift")
        getattr(asm, shift)(Reg.R0, Reg.R1, -1)
        asm.halt()
        with pytest.raises(AssemblyError, match="negative shift immediate -1"):
            asm.assemble()
        ok = Assembler("zero-shift")
        getattr(ok, shift)(Reg.R0, Reg.R1, 0)
        ok.halt()
        assert ok.assemble().instructions[0].operands[2] == 0

    def test_missing_halt_raises(self):
        asm = Assembler("nohalt")
        asm.movi(Reg.R0, 1)
        with pytest.raises(AssemblyError, match="HALT"):
            asm.assemble()

    def test_empty_program_raises(self):
        with pytest.raises(AssemblyError):
            Assembler("empty").assemble()

    def test_register_offset_loads_are_flagged(self):
        asm = Assembler("regoff")
        asm.ldrb(Reg.R0, Reg.R1, Reg.R2)
        asm.ldrb(Reg.R0, Reg.R1, 4)
        asm.halt()
        program = asm.assemble()
        assert program.instructions[0].offset_is_reg
        assert not program.instructions[1].offset_is_reg

    def test_code_size_is_two_bytes_per_instruction(self):
        program = _trivial_program()
        assert program.code_size_bytes() == 2 * len(program)

    def test_listing_mentions_labels_and_ops(self):
        asm = Assembler("listed")
        asm.label("entry")
        asm.movi(Reg.R3, 1)
        asm.halt()
        listing = asm.assemble().listing()
        assert "entry:" in listing
        assert "movi" in listing


class TestOpClassification:
    def test_load_store_sets_are_disjoint(self):
        assert not (LOAD_OPS & STORE_OPS)
        assert not (LOAD_OPS & BRANCH_OPS)

    def test_every_memory_op_has_a_width(self):
        for op in LOAD_OPS | STORE_OPS:
            assert ACCESS_WIDTH[op] in (1, 2, 4)

    def test_signed_loads_are_loads(self):
        assert SIGNED_LOADS <= LOAD_OPS
