"""Operand kinds are checked once, when an instruction is built.

``R`` operands (and the register half of ``RI``) name the GPRs
``r0``-``r15`` only, ``V`` operands the vector registers. The control
registers -- the supervisor-only ``tdtr`` and ``priv`` above all -- are
reachable only through the privilege-checked ``N`` operands of
``csrr``/``csrw``/``rpull``/``rpush``. A plain ALU or memory op that
named ``priv`` used to let a user-mode ptid promote itself with no
fault; every such program must now fail to load.
"""

import pytest

from repro import build_machine
from repro.errors import IsaError
from repro.hw.exceptions import ExceptionDescriptor, ExceptionKind
from repro.isa import Imm, Instruction, Reg, RegName, assemble

#: each wrote a control register from user mode without a fault
ESCALATIONS = [
    "mov priv, r1",
    "movi tdtr, 4096",
    "ld priv, r1, 0",
    "faa priv, r1, 1",
    "jal priv, L\nL:",
    "csrr priv, r1",
    "vmovi priv, 1",
    "vadd priv, r1, r1",
]


@pytest.mark.parametrize("source", ESCALATIONS,
                         ids=[source.split()[0] for source in ESCALATIONS])
def test_control_register_writes_fail_at_load(source):
    machine = build_machine()
    with pytest.raises(IsaError, match="line 1"):
        machine.load_asm(0, source + "\nhalt", supervisor=False)


def test_out_of_range_gpr_fails_at_load():
    # used to load, then raise out of machine.run()
    machine = build_machine()
    with pytest.raises(IsaError, match="r16"):
        machine.load_asm(0, "add r16, r1, r1\nhalt", supervisor=True)


def test_direct_construction_is_checked():
    with pytest.raises(IsaError, match="priv"):
        Instruction("mov", (Reg("priv"), Reg("r1")))
    with pytest.raises(IsaError):
        Instruction("start", (Reg("pc"),))            # RI: GPR or imm
    with pytest.raises(IsaError):
        Instruction("vadd", (Reg("v0"), Reg("r1"), Reg("v2")))
    with pytest.raises(IsaError):
        Instruction("csrr", (Reg("r1"), RegName("r16")))
    Instruction("start", (Reg("r15"),))
    Instruction("csrr", (Reg("r1"), RegName("tdtr")))


def test_templates_check_every_instruction_at_parse():
    """The ISA backend's request programs assemble through the checked
    path, with every segment a register-fed ``work``; a ``work`` that
    names a control register fails at load."""
    from repro.backends.machine import _request_asm, _segment_asm
    symbols = {"REQ": 0x1000, "REPLY": 0x1040, "DONE": 0x1080}
    sources = [_segment_asm()] + [_request_asm(n) for n in range(1, 13)]
    for source in sources:
        program = assemble(source, symbols=symbols)
        works = [i for i in program.instructions if i.op == "work"]
        assert works and all(i.operands == (Reg("r6"),) for i in works)
    machine = build_machine()
    with pytest.raises(IsaError, match="line 1"):
        machine.load_asm(0, "work priv\nhalt", supervisor=False)


def test_legal_register_operands_still_assemble():
    program = assemble("vmovi v0, 42\nvadd v1, v0, v0\n"
                       "rpush 1, pc, r4\ncsrw edp, r2\nstart r3")
    assert program.instructions[0].operands == (Reg("v0"), Imm(42))
    assert program.instructions[2].operands == (Imm(1), RegName("pc"),
                                                Reg("r4"))


def test_privileged_path_still_faults_from_user_mode():
    machine = build_machine()
    edp = machine.alloc("edp", 256)
    machine.load_asm(0, "movi r1, 1\ncsrw priv, r1\nhalt",
                     supervisor=False, edp=edp.base)
    machine.boot(0)
    machine.run()
    assert machine.thread(0).arch.priv == 0
    descriptor = ExceptionDescriptor.read(machine.memory, edp.base)
    assert descriptor.kind is ExceptionKind.PRIVILEGE_FAULT
