"""Tests for basic program execution on the hardware core."""

import pytest

from repro import build_machine
from repro.errors import ConfigError
from repro.hw import PtidState


def run_program(source, until=100_000, **kwargs):
    machine = build_machine(**kwargs)
    machine.load_asm(0, source, supervisor=True)
    machine.boot(0)
    machine.run(until=until)
    return machine


def test_arithmetic_loop():
    # sum 1..10 into r2
    machine = run_program("""
        movi r1, 10
        movi r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    """)
    thread = machine.thread(0)
    assert thread.arch.read("r2") == 55
    assert thread.finished
    assert thread.state is PtidState.DISABLED


def test_memory_load_store():
    machine = build_machine()
    buf = machine.alloc("buf", 64)
    machine.load_asm(0, """
        movi r1, BUF
        movi r2, 77
        st r1, 0, r2
        ld r3, r1, 0
        halt
    """, symbols={"BUF": buf.base}, supervisor=True)
    machine.boot(0)
    machine.run()
    assert machine.memory.load(buf.base) == 77
    assert machine.thread(0).arch.read("r3") == 77


def test_fetch_add_instruction():
    machine = build_machine()
    counter = machine.alloc("counter", 8)
    machine.load_asm(0, """
        movi r1, CTR
        faa r2, r1, 5
        faa r3, r1, 2
        halt
    """, symbols={"CTR": counter.base}, supervisor=True)
    machine.boot(0)
    machine.run()
    assert machine.thread(0).arch.read("r2") == 5
    assert machine.thread(0).arch.read("r3") == 7


def test_work_consumes_cycles():
    machine = run_program("work 500\nhalt")
    thread = machine.thread(0)
    assert thread.cycles_busy >= 500


def test_fwork_dirties_vector_state():
    machine = run_program("fwork 10\nhalt")
    assert machine.thread(0).arch.vector_dirty
    assert machine.thread(0).arch.footprint_bytes() == 784


def test_jal_jr_subroutine():
    machine = run_program("""
        jal r14, sub
        movi r2, 1
        halt
    sub:
        movi r3, 42
        jr r14
    """)
    thread = machine.thread(0)
    assert thread.arch.read("r3") == 42
    assert thread.arch.read("r2") == 1


def test_running_off_program_end_halts():
    machine = run_program("nop\nnop")
    assert machine.thread(0).finished


def test_two_ptids_interleave():
    machine = build_machine(smt_width=1)
    machine.load_asm(0, "work 50\nmovi r1, 1\nhalt", supervisor=True)
    machine.load_asm(1, "work 50\nmovi r1, 2\nhalt", supervisor=True)
    machine.boot(0)
    machine.boot(1)
    machine.run()
    assert machine.thread(0).arch.read("r1") == 1
    assert machine.thread(1).arch.read("r1") == 2
    # with smt_width=1 and both busy, total time covers both works
    assert machine.engine.now >= 100


def test_smt_width_2_overlaps_work():
    machine = build_machine(smt_width=2)
    machine.load_asm(0, "work 1000\nhalt", supervisor=True)
    machine.load_asm(1, "work 1000\nhalt", supervisor=True)
    machine.boot(0)
    machine.boot(1)
    machine.run()
    # both works overlap on two SMT slots: finish well before 2000
    assert machine.engine.now < 1500


def test_engine_idles_when_all_threads_halt():
    machine = run_program("halt")
    assert machine.engine.pending_events == 0
    assert machine.core(0).idle()


def test_instruction_and_issue_stats():
    machine = run_program("nop\nnop\nnop\nhalt")
    assert machine.thread(0).instructions_executed == 4
    assert machine.core(0).instructions_retired == 4
    assert machine.core(0).issue_rounds >= 4


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        build_machine(cores=0)
    with pytest.raises(ConfigError):
        build_machine(hw_threads_per_core=0)
    with pytest.raises(ConfigError):
        build_machine(security_model="voodoo")
    # fast-forward is always on and the zero-cost directory is a test
    # oracle: neither is a machine config value
    with pytest.raises(ConfigError, match="fast_forward"):
        build_machine(fast_forward=False)
    with pytest.raises(ConfigError, match="coherence"):
        build_machine(coherence="null")


@pytest.mark.parametrize("overrides", [
    dict(cores=2.5),
    dict(cores=True),
    dict(hw_threads_per_core="4"),
    dict(hw_threads_per_core=2.0),
    dict(smt_width=True),
    dict(smt_width=2.0),
    dict(rf_bytes=65536.0),
    dict(memory_bytes=0),
    dict(memory_bytes=False),
], ids=lambda overrides: "-".join(f"{key}-{value}"
                                  for key, value in overrides.items()))
def test_bad_config_fails_at_construction(overrides):
    # each of these used to build (and run) or fail deep inside
    # construction or the first alloc; the error names the field
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        build_machine(**overrides)


def test_thread_priority_validation():
    machine = build_machine()
    with pytest.raises(ConfigError):
        machine.core(0).set_priority(0, 0)


def test_shift_instructions():
    machine = run_program("""
        movi r1, 3
        shl r2, r1, 4
        shr r3, r2, 2
        halt
    """)
    assert machine.thread(0).arch.read("r2") == 48
    assert machine.thread(0).arch.read("r3") == 12


def test_logic_instructions():
    machine = run_program("""
        movi r1, 12
        movi r2, 10
        and r3, r1, r2
        or r4, r1, r2
        xor r5, r1, r2
        halt
    """)
    thread = machine.thread(0)
    assert thread.arch.read("r3") == 8
    assert thread.arch.read("r4") == 14
    assert thread.arch.read("r5") == 6
