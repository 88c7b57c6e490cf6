"""Benches for the paper's extension / future-work features.

- smartNIC direct dispatch (Section 4: offloading thread-event
  association to peripheral devices);
- priority-weighted SMT issue (Section 4: "threads used for serving
  time-sensitive interrupts receive more cycles");
- cross-core thread migration (Section 4: the scheduler "will also
  manage the mapping of threads to cores");
- multi-guest exception queuing (Section 3.2).
"""

from repro.devices import Nic
from repro.hypervisor.multiguest import MultiGuestHypervisor
from repro.machine import build_machine
from repro.workloads import DeterministicArrivals


def test_bench_smartnic_dispatch(benchmark):
    """Packets dispatched by the NIC starting the handler ptid itself."""

    def run():
        machine = build_machine()
        nic = Nic(machine.engine, machine.memory, machine.dma,
                  dispatch=lambda seq: machine.core(0).api_start(1))
        machine.load_asm(1, """
        loop:
            movi r1, HEAD
            ld r2, r1, 0
            addi r2, r2, 1
            st r1, 0, r2
            stop 1
            jmp loop
        """, symbols={"HEAD": nic.rx.head_addr}, supervisor=True)
        nic.start_rx(DeterministicArrivals(3_000),
                     machine.rngs.stream("rx"), max_packets=20)
        machine.run(until=1_000_000)
        return machine.thread(1).starts

    starts = benchmark(run)
    assert starts == 20


def test_bench_priority_issue_contention(benchmark):
    """A high-priority thread racing three hogs on one issue slot."""

    def run():
        machine = build_machine(smt_width=1)
        done = machine.alloc("done", 64)
        machine.load_asm(0, """
        loop:
            addi r1, r1, 1
            movi r9, 2000
            blt r1, r9, loop
            movi r2, DONE
            movi r3, 1
            st r2, 0, r3
            halt
        """, symbols={"DONE": done.base}, supervisor=True)
        for ptid in (1, 2, 3):
            machine.load_asm(ptid, "loop:\n    work 1000\n    jmp loop",
                             supervisor=False)
            machine.boot(ptid)
        machine.core(0).set_priority(0, 8)
        machine.boot(0)
        finish = {}
        machine.memory.watch_bus.subscribe(
            done.base, lambda _i: finish.setdefault("at", machine.engine.now))
        machine.run(until=100_000)
        return finish.get("at")

    finish = benchmark(run)
    # priority 8 of (8+3): ~11/8 of solo time for ~6000 issue events
    assert finish is not None and finish < 20_000


def test_bench_cross_core_migration(benchmark):
    """Stop on one core, migrate, resume on another."""
    machine = build_machine(cores=2)
    machine.load_asm(0, "movi r1, 5\nstop 0\naddi r1, r1, 1\nhalt",
                     core_id=0, supervisor=True)
    machine.boot(0, core_id=0)
    machine.run(until=10_000)
    state = {"slot": 1}

    def migrate():
        slot = state["slot"]
        state["slot"] += 1
        if state["slot"] >= 60:
            state["slot"] = 1
        return machine.chip.migrate(0, 0, 1, slot)

    latency = benchmark(migrate)
    assert latency == machine.costs.hw_start_l3_cycles


def test_bench_multiguest_queuing(benchmark):
    """Four guests faulting into one hypervisor ptid."""

    def run():
        return MultiGuestHypervisor(guests=4, iterations=3).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_exits == 12
