"""Tests for hardware thread priorities under SMT contention.

Section 4: "we can introduce hardware support for thread priorities
(e.g., threads used for serving time-sensitive interrupts receive more
cycles [56])".
"""

import pytest

from repro.errors import ConfigError
from repro.machine import build_machine

_SPIN_WORKER = """
loop:
    movi r2, DONE
    faa r3, r2, 0
    addi r1, r1, 1
    work 3
    jmp loop
"""

_COUNTED_WORKER = """
loop:
    addi r1, r1, 1
    blt r1, r9, loop
    movi r2, DONE
    movi r3, 1
    st r2, 0, r3
    halt
"""


def _race(priorities):
    """Run two identical counting workers; return their finish order
    and progress. The worker loop bodies are identical, so their
    priorities alone decide who advances faster."""
    machine = build_machine(smt_width=1)
    dones = [machine.alloc(f"done{i}", 64) for i in range(2)]
    for i in range(2):
        machine.load_asm(i, _COUNTED_WORKER,
                         symbols={"DONE": dones[i].base},
                         supervisor=True, name=f"worker{i}")
        machine.thread(i).arch.write("r9", 3_000)
        machine.core(0).set_priority(i, priorities[i])
        machine.boot(i)
    finish = {}
    for i, done in enumerate(dones):
        machine.memory.watch_bus.subscribe(
            done.base,
            lambda _info, i=i: finish.setdefault(i, machine.engine.now))
    machine.run(until=200_000)
    machine.check()
    return finish


class TestPriorityWeightedIssue:
    def test_equal_priorities_finish_together(self):
        finish = _race((1, 1))
        assert set(finish) == {0, 1}
        assert abs(finish[0] - finish[1]) < 500

    def test_higher_priority_finishes_first(self):
        finish = _race((4, 1))
        assert finish[0] < finish[1]

    def test_priority_ratio_reflects_in_finish_times(self):
        finish = _race((4, 1))
        # priority 4 gets ~4/5 of cycles until it halts: it should
        # finish in roughly 5/4 of its solo time, far before the other
        assert finish[1] > finish[0] * 1.4

    def test_no_starvation(self):
        # even a 16:1 ratio must let the low-priority thread finish
        finish = _race((16, 1))
        assert set(finish) == {0, 1}

    def test_set_priority_validates(self):
        machine = build_machine()
        with pytest.raises(ConfigError):
            machine.core(0).set_priority(0, 0)

    def test_bad_policy_rejected(self):
        # priorities are the only issue control: a policy name is an
        # unknown config field, rejected before any machine is built
        with pytest.raises(ConfigError, match="unknown machine config"):
            build_machine(issue_policy="lottery")


class TestTimeCriticalHandler:
    def test_high_priority_handler_wakes_into_cycles(self):
        """A time-critical mwait handler with high priority responds
        faster under background compute load than a low-priority one."""
        latencies = {}
        for prio in (1, 8):
            machine = build_machine(smt_width=1)
            flag = machine.alloc("flag", 64)
            resp = machine.alloc("resp", 64)
            machine.load_asm(0, """
                movi r1, FLAG
                monitor r1
                mwait
                work 50
                movi r2, RESP
                movi r3, 1
                st r2, 0, r3
                halt
            """, symbols={"FLAG": flag.base, "RESP": resp.base},
                supervisor=True, name="handler")
            # background compute hogs
            for ptid in (1, 2, 3):
                machine.load_asm(ptid, "loop:\n    work 1000\n    jmp loop",
                                 supervisor=False, name=f"hog{ptid}")
                machine.boot(ptid)
            machine.core(0).set_priority(0, prio)
            machine.boot(0)
            times = {}
            machine.memory.watch_bus.subscribe(
                resp.base, lambda _info: times.setdefault(
                    "resp", machine.engine.now))
            machine.run(max_events=500)
            wake_at = machine.engine.now + 10
            machine.engine.at(wake_at, machine.memory.store,
                              flag.base, 1, "apic")
            machine.run(until=wake_at + 50_000)
            latencies[prio] = times["resp"] - wake_at
        assert latencies[8] < latencies[1]
