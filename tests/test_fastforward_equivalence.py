"""Fast-forward vs naive stepping must be indistinguishable.

The busy-cycle fast-forward in ``HWCore._plan_fast_forward`` claims to
replay exactly the accounting naive cycle-by-cycle stepping would have
produced -- retired instructions, per-thread busy cycles, final clock,
wakeup/exception counts, and the trace event stream. These tests run
the same workload twice, as shipped and under the naive-stepping oracle
(``tests/naive_reference.py``), and diff everything except ``events``
(the one counter that legitimately drops: skipping cycles is the whole
point).
"""

import pytest

from repro import build_machine
from repro.experiments import get_experiment
from repro.hw.core import HWCore
from tests.naive_reference import naive_stepping


def _run(workload, fast_forward: bool, **kwargs):
    """``workload`` as shipped, or under the naive-stepping oracle."""
    if fast_forward:
        return workload(**kwargs)
    with naive_stepping():
        return workload(**kwargs)


def _strip_events(stats):
    return {key: value for key, value in stats.items() if key != "events"}


def _thread_fingerprint(machine, ptids, core_id=0):
    return [
        {
            "ptid": thread.ptid,
            "state": thread.state.name,
            "finished": thread.finished,
            "instructions": thread.instructions_executed,
            "cycles_busy": thread.cycles_busy,
            "wakeups": thread.wakeups,
            "exceptions": thread.exceptions_raised,
            "pc": thread.arch.pc,
        }
        for thread in (machine.thread(p, core_id) for p in ptids)
    ]


#: a lone thread: movi at cycle 0, then ld (1), mul (7), div (10),
#: st (22) and halt (28) -- every instruction after the first outlasts
#: its issue cycle, so each of those rounds parks straight into a
#: merged stall until the instruction completes
LONE_MIXED = """
    movi r1, BUF
    ld r2, r1, 0
    mul r3, r1, r1
    div r4, r3, r1
    st r1, 8, r3
    halt
"""


def _run_lone_mixed(instrument: bool = False):
    machine = build_machine(cores=1, hw_threads_per_core=2,
                            instrument=instrument, trace=True)
    buf = machine.alloc("buf", 64)
    machine.load_asm(0, LONE_MIXED, symbols={"BUF": buf.base},
                     supervisor=True)
    machine.boot(0)
    machine.run()
    return machine


def _run_contended(instrument: bool = False):
    """Contended SMT: 5 work-burst threads on 2 slots, plus a DMA-woken
    monitor sleeper and an exception-raising thread."""
    machine = build_machine(cores=1, hw_threads_per_core=8, smt_width=2,
                            instrument=instrument, trace=True)
    box = machine.alloc("box", 64)
    edp = machine.alloc("edp", 256)
    for ptid in range(5):
        machine.load_asm(ptid, f"""
            movi r1, 0
            movi r2, 3
        loop:
            work {600 + 137 * ptid}
            addi r1, r1, 1
            bne r1, r2, loop
            halt
        """, supervisor=True)
        machine.boot(ptid)
    machine.load_asm(5, """
        movi r1, BOX
        monitor r1
        mwait
        ld r2, r1, 0
        work 400
        halt
    """, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(5)
    machine.load_asm(6, """
        work 300
        movi r1, 7
        movi r2, 0
        div r3, r1, r2
        halt
    """, supervisor=True, edp=edp.base)
    machine.boot(6)
    machine.dma.write_word(box.base, 42)
    machine.run()
    machine.run(until=machine.engine.now + 100)  # horizon-capped tail
    return machine


def _run_uncontended_priority():
    """Uncontended slots with unequal priorities: the batch replays
    full-pool picks whatever the weights."""
    machine = build_machine(cores=1, hw_threads_per_core=4, smt_width=2,
                            trace=True)
    machine.core(0).set_priority(0, 4)
    machine.load_asm(0, "work 5000\nmovi r9, 1\nhalt", supervisor=True)
    machine.load_asm(1, "work 3000\nmovi r9, 2\nhalt", supervisor=True)
    machine.boot(0)
    machine.boot(1)
    machine.run()
    return machine


def _run_contended_priority():
    """Contended slots whose weights change mid-run from engine events:
    unequal weights step every round through the credit walk, equal
    ones batch whole rotations again, and each change re-plans."""
    machine = build_machine(cores=1, hw_threads_per_core=4, smt_width=2,
                            trace=True)
    core = machine.core(0)
    for ptid in range(4):
        machine.load_asm(ptid, f"work {3000 + 250 * ptid}\nhalt",
                         supervisor=True)
        machine.boot(ptid)
    core.set_priority(0, 3)
    machine.engine.at(900, core.set_priority, 0, 1)
    machine.engine.at(2500, core.set_priority, 2, 2)
    machine.engine.at(4100, core.set_priority, 2, 1)
    machine.run()
    return machine


def _run_unequal_bursts(instrument: bool = False):
    """Three unequal work bursts contend for one slot: each batch runs
    whole rotations up to the last one after which the shortest burst
    still has work left, then the round where it ends steps."""
    machine = build_machine(cores=1, hw_threads_per_core=4, smt_width=1,
                            instrument=instrument, trace=True)
    for ptid, cycles in enumerate((700, 1_234, 1_901)):
        machine.load_asm(ptid, f"work {cycles}\nmovi r1, {ptid}\nhalt",
                         supervisor=True)
        machine.boot(ptid)
    machine.run()
    return machine


def _run_multicore(instrument: bool = False):
    """Two cores on one engine: each core's bursts must batch past the
    other core's per-cycle resumes (which live in the engine's step lane,
    outside the foreign-event horizon), and a cross-core store wakes a
    monitor sleeper mid-burst -- the interruptible (lazy) batch path."""
    machine = build_machine(cores=2, hw_threads_per_core=4, smt_width=2,
                            instrument=instrument, trace=True)
    box = machine.alloc("box", 64)
    for ptid in range(3):
        machine.load_asm(ptid, f"""
            movi r1, 0
            movi r2, 2
        loop:
            work {500 + 211 * ptid}
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
        work 350
        halt
    """, core_id=0, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(3, core_id=0)
    # core 1: a long burst, then the cross-core store that wakes core
    # 0's sleeper while core 0 is (in fast mode) mid-batch
    machine.load_asm(0, """
        work 1200
        movi r1, BOX
        movi r2, 99
        st r1, 0, r2
        work 600
        halt
    """, core_id=1, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(0, core_id=1)
    machine.load_asm(1, "work 2500\nhalt", core_id=1, supervisor=True)
    machine.boot(1, core_id=1)
    machine.run()
    return machine


@pytest.mark.parametrize("workload", [_run_contended,
                                      _run_uncontended_priority,
                                      _run_contended_priority,
                                      _run_unequal_bursts])
def test_fast_forward_matches_naive(workload):
    fast = _run(workload, True)
    naive = _run(workload, False)
    ptids = range(fast.config.hw_threads_per_core)
    assert fast.engine.now == naive.engine.now
    assert _strip_events(fast.stats()) == _strip_events(naive.stats())
    assert (_thread_fingerprint(fast, ptids)
            == _thread_fingerprint(naive, ptids))
    assert fast.tracer.events == naive.tracer.events


def test_multicore_fast_forward_matches_naive():
    fast = _run(_run_multicore, True)
    naive = _run(_run_multicore, False)
    assert fast.engine.now == naive.engine.now
    assert _strip_events(fast.stats()) == _strip_events(naive.stats())
    ptids = range(fast.config.hw_threads_per_core)
    for core_id in (0, 1):
        fast_threads = [fast.thread(p, core_id) for p in ptids]
        naive_threads = [naive.thread(p, core_id) for p in ptids]
        for f, n in zip(fast_threads, naive_threads):
            assert f.instructions_executed == n.instructions_executed
            assert f.cycles_busy == n.cycles_busy
            assert f.wakeups == n.wakeups
            assert f.state is n.state
    assert fast.tracer.events == naive.tracer.events
    # the whole point: neither core's per-cycle resumes pinned the
    # other's horizon at one cycle
    assert fast.engine.events_processed < naive.engine.events_processed / 5


def _profile(machine):
    return machine.obs.profiler.snapshot(machine.engine.now)


@pytest.mark.parametrize("workload", [_run_contended, _run_multicore,
                                      _run_unequal_bursts])
def test_profiler_attribution_matches_naive(workload):
    """A batched round is charged to ``fastforward`` as a stepped one
    is only while every issueable thread is mid-``work``: a contended
    batch that ran a burst down to zero would charge the rounds after
    it to ``fastforward`` where stepping charges ``issue``."""
    fast = _run(workload, True, instrument=True)
    naive = _run(workload, False, instrument=True)
    assert fast.engine.now == naive.engine.now
    assert _profile(fast) == _profile(naive)
    assert fast.engine.events_processed < naive.engine.events_processed


def test_contended_batches_run_whole_rotations_to_the_shortest_burst(
        monkeypatch):
    """Three bursts on one slot: a batch is bounded by whole rotations,
    not by the shortest burst's cycles, so the core plans once per
    burst end and not in a geometric series of shrinking batches."""
    plans = []
    planner = HWCore._plan_fast_forward

    def noting(core, thread_list, issueable, now):
        plan = planner(core, thread_list, issueable, now)
        if plan is not None:
            plans.append(plan[0])
        return plan

    monkeypatch.setattr(HWCore, "_plan_fast_forward", noting)
    machine = _run_unequal_bursts()
    # the shortest burst has 699 cycles to burn: 698 rotations of three
    # leave it one. Once it ends, the middle one has 533 left (532
    # rotations of two), and then the longest runs alone, uncontended
    assert plans == [698 * 3, 532 * 2, 665]
    assert all(machine.thread(ptid).finished for ptid in range(3))


@pytest.mark.parametrize("workload", [_run_lone_mixed, _run_contended,
                                      _run_multicore])
@pytest.mark.parametrize("fast_forward", [True, False])
def test_instrumentation_only_observes(workload, fast_forward):
    """The profiler rides the one issue loop without steering it: an
    instrumented run is the uninstrumented run, engine events included."""
    plain = _run(workload, fast_forward)
    observed = _run(workload, fast_forward, instrument=True)
    assert plain.obs is None and observed.obs is not None

    def stats(machine):
        return {key: value for key, value in machine.stats().items()
                if key != "metrics"}

    assert stats(observed) == stats(plain)
    ptids = range(plain.config.hw_threads_per_core)
    for core_id in range(plain.config.cores):
        assert (_thread_fingerprint(observed, ptids, core_id)
                == _thread_fingerprint(plain, ptids, core_id))
    assert observed.tracer.events == plain.tracer.events


def test_fast_forward_actually_skips_events():
    fast = _run(_run_contended, True)
    naive = _run(_run_contended, False)
    assert fast.engine.events_processed < naive.engine.events_processed / 5


def test_storage_recency_order_preserved():
    fast = _run(_run_contended, True)
    naive = _run(_run_contended, False)

    def recency(machine):
        last_use = machine.core(0).storage._last_use
        return sorted(last_use, key=lambda ptid: last_use[ptid])

    assert recency(fast) == recency(naive)


#: every experiment whose quick run consults the fast-forward planner;
#: E03's cores never do, and E18 reports engine events, which depend on
#: the stepping by design
STEPPED_EXPERIMENTS = ["E01", "E02", "E06", "E08", "E11", "E15", "E16",
                       "E17"]


@pytest.mark.parametrize("experiment_id", STEPPED_EXPERIMENTS)
def test_quick_json_identical_under_naive_stepping(experiment_id,
                                                   quick_results):
    with naive_stepping():
        naive = get_experiment(experiment_id).run(quick=True).to_json()
    assert quick_results[experiment_id].to_json() == naive
