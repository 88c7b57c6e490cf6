"""Tests for instruction definitions, the assembler, and programs."""

import pytest

from repro.errors import IsaError
from repro.isa import Imm, Instruction, Label, OPS, Program, Reg, RegName, assemble


class TestInstruction:
    def test_valid_construction(self):
        instr = Instruction("addi", (Reg("r1"), Reg("r2"), Imm(5)))
        assert instr.spec.latency == 1
        assert str(instr) == "addi r1, r2, 5"

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IsaError):
            Instruction("frobnicate", ())

    def test_wrong_arity_rejected(self):
        with pytest.raises(IsaError):
            Instruction("add", (Reg("r1"), Reg("r2")))

    def test_wrong_operand_type_rejected(self):
        with pytest.raises(IsaError):
            Instruction("movi", (Imm(1), Imm(2)))  # first must be Reg

    def test_ri_operand_accepts_both(self):
        Instruction("start", (Reg("r1"),))
        Instruction("start", (Imm(3),))

    def test_all_seven_proposed_instructions_exist(self):
        # the paper's Section 3.1 instruction list
        for op in ("monitor", "mwait", "start", "stop", "rpull", "rpush",
                   "invtid"):
            assert op in OPS

    def test_rpull_signature_matches_paper(self):
        # rpull <vtid>, <local-reg>, <remote-reg>
        assert OPS["rpull"].operands == ("RI", "R", "N")
        # rpush <vtid>, <remote-reg>, <local-reg>
        assert OPS["rpush"].operands == ("RI", "N", "R")


class TestAssembler:
    def test_simple_program(self):
        prog = assemble("""
            movi r1, 10
            addi r1, r1, -1
            halt
        """)
        assert len(prog) == 3
        assert prog.fetch(0).op == "movi"
        assert prog.fetch(1).operands[2] == Imm(-1)

    def test_labels_and_branches(self):
        prog = assemble("""
        loop:
            addi r1, r1, 1
            bne r1, r2, loop
            halt
        """)
        assert prog.labels == {"loop": 0}
        branch = prog.fetch(1)
        assert branch.operands[2] == Label("loop")
        assert prog.resolve("loop") == 0

    def test_forward_label_reference(self):
        prog = assemble("""
            jmp end
            nop
        end:
            halt
        """)
        assert prog.resolve("end") == 2

    def test_comments_and_blank_lines_ignored(self):
        prog = assemble("""
            ; full comment
            nop  ; trailing
            # hash comment
            nop
        """)
        assert len(prog) == 2

    def test_hex_and_negative_immediates(self):
        prog = assemble("movi r1, 0xFF\nmovi r2, -3")
        assert prog.fetch(0).operands[1] == Imm(255)
        assert prog.fetch(1).operands[1] == Imm(-3)

    def test_symbols_substitute(self):
        prog = assemble("movi r1, RX_TAIL", symbols={"RX_TAIL": 0x5000})
        assert prog.fetch(0).operands[1] == Imm(0x5000)

    def test_rpull_parses_register_name_operand(self):
        prog = assemble("rpull 3, r1, pc")
        instr = prog.fetch(0)
        assert instr.operands == (Imm(3), Reg("r1"), RegName("pc"))

    def test_and_or_keyword_mangling(self):
        prog = assemble("and r1, r2, r3\nor r4, r5, r6")
        assert prog.fetch(0).op == "and_"
        assert prog.fetch(1).op == "or_"

    def test_unknown_opcode(self):
        with pytest.raises(IsaError) as err:
            assemble("bogus r1")
        assert "line 1" in str(err.value)

    def test_duplicate_label_rejected(self):
        with pytest.raises(IsaError):
            assemble("x:\nnop\nx:\nnop")

    def test_undefined_branch_target(self):
        with pytest.raises(IsaError):
            assemble("jmp nowhere")

    def test_wrong_operand_count_reports_line(self):
        with pytest.raises(IsaError) as err:
            assemble("nop\nadd r1, r2")
        assert "line 2" in str(err.value)

    def test_register_where_immediate_needed(self):
        with pytest.raises(IsaError):
            assemble("fwork r1")

    def test_monitor_mwait_sequence(self):
        prog = assemble("""
            movi r2, 0x5000
            monitor r2
            mwait
            halt
        """)
        assert [i.op for i in prog.instructions] == [
            "movi", "monitor", "mwait", "halt"]


class TestProgram:
    def test_fetch_out_of_range(self):
        prog = assemble("nop")
        with pytest.raises(IsaError):
            prog.fetch(5)
        with pytest.raises(IsaError):
            prog.fetch(-1)

    def test_resolve_missing_label(self):
        with pytest.raises(IsaError):
            assemble("nop").resolve("ghost")

    def test_bad_label_target_rejected(self):
        from repro.isa.instructions import Instruction as I
        with pytest.raises(IsaError):
            Program([I("nop")], labels={"x": 9})

    def test_listing_includes_labels(self):
        prog = assemble("start:\nnop\nhalt")
        listing = prog.listing()
        assert "start:" in listing
        assert "nop" in listing
