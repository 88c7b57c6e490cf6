"""Pre-decoded handler chains vs the naive interpreter oracle.

The decoder (``repro.isa.decode``) claims byte-for-byte behavioral
identity with instruction-at-a-time interpretation: same architectural
state, same retirement counts, same busy-cycle accounting, same final
clock -- with and without the busy-cycle fast-forward stacked on top.
These tests run the same workload decoded and under the naive
fetch-and-dispatch oracle in ``tests/naive_reference.py`` (crossed
with naive stepping, the fast-forward's oracle, where the interplay
matters) and diff everything except ``events`` (batching fused runs
legitimately drops engine events, exactly like the fast-forward). A
traced machine, which runs its chains unfused, must also emit the
oracle's trace record for record.
"""

from contextlib import nullcontext

import pytest

from repro import build_machine
from repro.errors import ConfigError
from repro.experiments import get_experiment
from repro.machine import MachineConfig
from tests.naive_reference import naive_interpreter, naive_stepping


def _strip_events(stats):
    return {key: value for key, value in stats.items() if key != "events"}


def _fingerprint(machine, core_id=0):
    out = []
    for thread in machine.core(core_id).threads:
        if thread.program is None:
            continue
        out.append({
            "ptid": thread.ptid,
            "state": thread.state.name,
            "finished": thread.finished,
            "instructions": thread.instructions_executed,
            "cycles_busy": thread.cycles_busy,
            "wakeups": thread.wakeups,
            "exceptions": thread.exceptions_raised,
            "pc": thread.arch.pc,
            "gprs": list(thread.arch.gprs),
            "flags": thread.arch.flags,
        })
    return out


def _both(workload, *args):
    """``(decoded, naive)``: the workload run twice, the second time
    under the oracle."""
    decoded = workload(*args)
    with naive_interpreter():
        naive = workload(*args)
    return decoded, naive


def _run_contended(fast_forward: bool = True, trace: bool = False):
    """Contended SMT with fusable ALU runs, a DMA-woken monitor sleeper,
    and a faulting thread -- the full decoded-dispatch surface."""
    machine = build_machine(cores=1, hw_threads_per_core=8, smt_width=2,
                            trace=trace)
    box = machine.alloc("box", 64)
    edp = machine.alloc("edp", 256)
    for ptid in range(4):
        machine.load_asm(ptid, f"""
            movi r1, 0
            movi r2, 3
        loop:
            movi r4, {5 + ptid}
            addi r4, r4, 7
            xor  r5, r4, r1
            shl  r6, r4, 2
            work {400 + 97 * ptid}
            addi r1, r1, 1
            bne r1, r2, loop
            halt
        """, supervisor=True)
        machine.boot(ptid)
    machine.load_asm(4, """
        movi r1, BOX
        monitor r1
        mwait
        ld r2, r1, 0
        work 300
        halt
    """, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(4)
    machine.load_asm(5, """
        work 200
        movi r1, 7
        movi r2, 0
        div r3, r1, r2
        halt
    """, supervisor=True, edp=edp.base)
    machine.boot(5)
    machine.dma.write_word(box.base, 42)
    with nullcontext() if fast_forward else naive_stepping():
        machine.run()
        machine.run(until=machine.engine.now + 100)
    return machine


def _run_multicore():
    """Two cores; a cross-core store wakes a sleeper mid-fused-run."""
    machine = build_machine(cores=2, hw_threads_per_core=4, smt_width=2)
    box = machine.alloc("box", 64)
    for ptid in range(3):
        machine.load_asm(ptid, f"""
            movi r1, 0
            movi r2, 2
        loop:
            movi r4, {3 + ptid}
            add  r5, r4, r4
            sub  r6, r5, r1
            work {350 + 151 * ptid}
            addi r1, r1, 1
            bne r1, r2, loop
            halt
        """, core_id=0, supervisor=True)
        machine.boot(ptid, core_id=0)
    machine.load_asm(3, """
        movi r1, BOX
        monitor r1
        mwait
        ld r2, r1, 0
        halt
    """, core_id=0, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(3, core_id=0)
    machine.load_asm(0, """
        work 900
        movi r1, BOX
        movi r2, 99
        st r1, 0, r2
        work 400
        halt
    """, core_id=1, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(0, core_id=1)
    machine.run()
    return machine


def _run_jump_into_run():
    """A dynamic jump lands mid-way inside a fusable ALU run: interior
    indices must execute instruction-at-a-time with identical results."""
    machine = build_machine(cores=1, hw_threads_per_core=2)
    machine.load_asm(0, """
        movi r1, 6       ; jr target: index of 'addi r3, r3, 10' below
        jr r1
        movi r2, 1       ; skipped
        movi r3, 2       ; skipped
        movi r2, 100     ; run start (skipped by the jump)
        movi r3, 200
        addi r3, r3, 10  ; jump lands here, inside the run
        add  r4, r2, r3
        halt
    """, supervisor=True)
    machine.boot(0)
    machine.run()
    return machine


def _run_stop_mid_run():
    """api_stop lands while a fused run is burning: the rewind must
    leave pc/registers exactly where naive stepping would."""
    machine = build_machine(cores=1, hw_threads_per_core=2)
    machine.load_asm(0, """
        movi r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        halt
    """, supervisor=True)
    machine.boot(0)
    # stop at cycle 3: mid-way through the fused ALU run
    machine.engine.at(3, machine.core(0).api_stop, 0)
    machine.run()
    return machine


@pytest.mark.parametrize("fast_forward", [True, False])
def test_predecode_matches_naive_contended(fast_forward):
    fast, naive = _both(_run_contended, fast_forward)
    assert fast.engine.now == naive.engine.now
    assert _strip_events(fast.stats()) == _strip_events(naive.stats())
    assert _fingerprint(fast) == _fingerprint(naive)


def test_predecode_matches_naive_multicore():
    fast, naive = _both(_run_multicore)
    assert fast.engine.now == naive.engine.now
    assert _strip_events(fast.stats()) == _strip_events(naive.stats())
    for core_id in (0, 1):
        assert _fingerprint(fast, core_id) == _fingerprint(naive, core_id)


@pytest.mark.parametrize("workload", [_run_jump_into_run,
                                      _run_stop_mid_run])
def test_predecode_fusion_edges(workload):
    fast, naive = _both(workload)
    assert fast.engine.now == naive.engine.now
    assert _fingerprint(fast) == _fingerprint(naive)


@pytest.mark.parametrize("fast_forward", [True, False])
def test_traced_run_matches_naive_trace(fast_forward):
    # a traced core decodes with fusion blocked, so it issues -- and
    # traces -- one instruction at a time, exactly like the oracle
    traced, naive = _both(_run_contended, fast_forward, True)
    events = traced.tracer.events
    assert events == naive.tracer.events
    assert traced.tracer.dropped == naive.tracer.dropped == 0
    messages = [event.message for event in events]
    assert "core0 ptid0 xor r5, r4, r1" in messages
    # the faulting div: its exception record, then its issue record
    fault = messages.index("ptid5 DIV_ZERO")
    assert messages[fault + 1] == "core0 ptid5 div r3, r1, r2"
    assert _fingerprint(traced) == _fingerprint(naive)


def test_traced_core_keeps_the_shared_chain_fused():
    # the traced core's unfused chain is private: an untraced core that
    # loads the same program afterwards still gets the shared fused one
    from repro.isa import assemble

    program = assemble("movi r1, 0\n" + "addi r1, r1, 1\n" * 5 + "halt")
    traced = build_machine(trace=True)
    traced.load_program(0, program, supervisor=True)
    assert program._decoded_cache is None
    plain = build_machine()
    plain.load_program(0, program, supervisor=True)
    assert plain.thread(0)._decoded is program._decoded_cache
    for machine in (traced, plain):
        machine.boot(0)
        machine.run()
        assert machine.thread(0).arch.gprs[1] == 5
    # fused, the run's burn cycles fast-forward in one batch
    assert traced.engine.events_processed \
        > plain.engine.events_processed


def test_predecode_is_not_a_config_field():
    with pytest.raises(ConfigError, match="predecode"):
        build_machine(predecode=False)
    # still readable (run manifests record it), and always on
    assert MachineConfig().predecode is True


#: every experiment whose quick run issues instructions (E18 measures
#: the decoder itself); E09 runs no ISA machine, so it proves nothing here
ISA_EXPERIMENTS = ["E01", "E02", "E06", "E08", "E11", "E15", "E17"]


@pytest.mark.parametrize("experiment_id", ISA_EXPERIMENTS)
def test_quick_json_identical_under_the_oracle(experiment_id,
                                               quick_results):
    with naive_interpreter():
        naive = get_experiment(experiment_id).run(quick=True).to_json()
    assert quick_results[experiment_id].to_json() == naive
