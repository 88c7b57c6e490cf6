"""One definition per opcode, with latencies read from the opcode table.

Every opcode in ``OPS`` is defined exactly once in the simulator: by a
decoder maker (``repro.isa.decode.MAKERS``, the hot ops) or by an
``HWCore._op_*`` method (``HWCore._DISPATCH``, the cold ones). The
naive oracle in ``tests/naive_reference.py`` re-states the hot ops
independently, and the makers fold ``OPS[op].latency`` in at decode
time rather than restating it.
"""

import dataclasses

from repro import build_machine
from repro.hw.core import HWCore
from repro.isa import OPS, assemble
from repro.isa.decode import MAKERS
from tests.naive_reference import HOT_OPS, naive_interpreter


def test_every_opcode_has_exactly_one_definition():
    hot, cold = set(MAKERS), set(HWCore._DISPATCH)
    assert hot.isdisjoint(cold)
    assert hot | cold == set(OPS)
    # the oracle restates exactly the hot ops and borrows the cold ones
    assert set(HOT_OPS) == hot


def _div_cost(divisor: int):
    machine = build_machine()
    edp = machine.alloc("edp", 256)
    machine.load_asm(0, "div r3, r1, r2\nhalt", supervisor=True,
                     edp=edp.base)
    machine.thread(0).arch.write("r1", 7)
    machine.thread(0).arch.write("r2", divisor)
    machine.boot(0)
    machine.run()
    return machine.thread(0).cycles_busy


def test_decoded_div_costs_its_table_latency(monkeypatch):
    assert _div_cost(2) == 12 + 1                     # div, then halt
    monkeypatch.setitem(OPS, "div", dataclasses.replace(OPS["div"],
                                                        latency=20))
    assert _div_cost(2) == 20 + 1
    assert _div_cost(0) == 20          # the faulting div: no halt issues


#: every hot op, each executed with nonzero operands (two ptids with
#: different seeds, sharing one watched line)
_EVERY_HOT_OP = """
    movi r1, BUF
    movi r2, SEED
    movi r3, 3
loop:
    mul  r4, r2, r3
    div  r5, r4, r3
    add  r6, r5, r4
    sub  r7, r6, r3
    and  r8, r7, r6
    or   r9, r8, r4
    xor  r10, r9, r7
    shl  r11, r10, 3
    shr  r12, r11, 2
    mov  r13, r12
    nop
    monitor r1
    st   r1, 0, r13
    mwait
    ld   r14, r1, 0
    faa  r15, r1, 2
    jal  r9, step
    beq  r3, r0, out
    blt  r2, r3, out
    bne  r3, r2, loop
out:
    jmp  done
step:
    addi r3, r3, -1
    bge  r3, r0, back
    halt
back:
    jr   r9
done:
    work 5
    halt
"""


def _every_hot_op():
    machine = build_machine(hw_threads_per_core=4)
    buf = machine.alloc("buf", 64)
    for ptid in range(2):
        machine.load_asm(ptid, _EVERY_HOT_OP, supervisor=True,
                         symbols={"BUF": buf.base + 8 * ptid,
                                  "SEED": 6 + 5 * ptid})
        machine.boot(ptid)
    machine.run()
    threads = machine.core(0).threads[:2]
    assert all(thread.finished for thread in threads)
    return machine.engine.now, [
        (t.instructions_executed, t.cycles_busy, t.arch.snapshot())
        for t in threads]


def test_program_covers_every_hot_op():
    program = assemble(_EVERY_HOT_OP, symbols={"BUF": 0, "SEED": 0})
    assert {instr.op for instr in program.instructions} == set(MAKERS)


def test_every_hot_op_matches_the_oracle():
    decoded = _every_hot_op()
    with naive_interpreter():
        assert _every_hot_op() == decoded


def test_every_hot_op_charges_the_table(monkeypatch):
    # bump every latency: the decoded chains must follow the table the
    # oracle reads at run time (and nothing fuses off one cycle)
    default = _every_hot_op()
    for op, spec in list(OPS.items()):
        monkeypatch.setitem(OPS, op, dataclasses.replace(
            spec, latency=spec.latency + 7))
    bumped = _every_hot_op()
    with naive_interpreter():
        assert _every_hot_op() == bumped
    assert bumped[0] > default[0]
