"""Tests for interrupt delivery paths and the three I/O server designs."""

import pytest

from repro.arch.costs import CostModel
from repro.devices import Nic
from repro.errors import ConfigError
from repro.kernel import (
    HwThreadDispatch,
    IdtInterruptPath,
    InterruptIoServer,
    MwaitIoServer,
    PollingIoServer,
)
from repro.machine import build_machine
from repro.mem.memory import Memory
from repro.sim.engine import Engine
from repro.workloads import DeterministicArrivals


class TestIdtInterruptPath:
    def test_delivery_latency_matches_chain(self):
        engine = Engine()
        costs = CostModel()
        path = IdtInterruptPath(engine, costs)
        path.raise_irq(0)
        engine.run()
        expected = costs.baseline_io_wakeup_cycles()
        assert path.recorder.samples == [expected]

    def test_cross_core_adds_ipi(self):
        engine = Engine()
        costs = CostModel()
        path = IdtInterruptPath(engine, costs, cross_core=True)
        path.raise_irq(0)
        engine.run()
        assert path.recorder.samples[0] \
            == costs.baseline_io_wakeup_cycles(cross_core=True)

    def test_no_thread_wakeup_variant(self):
        engine = Engine()
        costs = CostModel()
        path = IdtInterruptPath(engine, costs, wakes_blocked_thread=False)
        path.raise_irq(0)
        engine.run()
        assert path.recorder.samples[0] \
            == costs.irq_entry_cycles + costs.irq_exit_cycles

    def test_handler_invoked_with_event_id(self):
        engine = Engine()
        events = []
        path = IdtInterruptPath(engine, handler=events.append)
        path.raise_irq(42)
        engine.run()
        assert events == [42]

    def test_accounting_tracks_charges(self):
        engine = Engine()
        path = IdtInterruptPath(engine)
        path.raise_irq(0)
        path.raise_irq(1)
        engine.run()
        assert path.accounting.irq_entries == 2
        assert path.accounting.scheduler_invocations == 2


class TestHwThreadDispatch:
    def test_wakeup_latency_matches_model(self):
        engine = Engine()
        memory = Memory()
        word = memory.alloc("evt", 8)
        costs = CostModel()
        path = HwThreadDispatch(engine, memory, word.base, costs)
        engine.at(10, memory.store, word.base, 1, "dev")
        engine.run()
        assert path.recorder.samples == [costs.hw_wakeup_cycles("rf")]

    def test_tier_changes_latency(self):
        costs = CostModel()
        latencies = {}
        for tier in ("rf", "l2", "l3"):
            engine = Engine()
            memory = Memory()
            word = memory.alloc("evt", 8)
            path = HwThreadDispatch(engine, memory, word.base, costs,
                                    tier=tier)
            engine.at(5, memory.store, word.base, 1, "dev")
            engine.run()
            latencies[tier] = path.recorder.samples[0]
        assert latencies["rf"] < latencies["l2"] < latencies["l3"]

    def test_busy_handler_coalesces_wakeups(self):
        engine = Engine()
        memory = Memory()
        word = memory.alloc("evt", 8)
        path = HwThreadDispatch(engine, memory, word.base,
                                handler_cycles=5_000)
        engine.at(10, memory.store, word.base, 1, "dev")
        engine.at(20, memory.store, word.base, 2, "dev")
        engine.run()
        assert path.events_delivered == 2
        # the second event waits for the handler, not a second wakeup
        assert path.recorder.samples[1] >= 4_000

    def test_rejects_bad_tier(self):
        with pytest.raises(ConfigError):
            HwThreadDispatch(Engine(), Memory(), 0x1000, tier="dram")

    def test_vs_idt_speedup_order_of_magnitude(self):
        costs = CostModel()
        assert (costs.baseline_io_wakeup_cycles()
                / costs.hw_wakeup_cycles("rf")) > 50


def drive_server(server_cls, period=2000, packets=20, service=400, **kwargs):
    machine = build_machine()
    nic = Nic(machine.engine, machine.memory, machine.dma)
    server = server_cls(machine.engine, machine.costs, **kwargs)

    def on_tail(info):
        while True:
            pkt = nic.rx.consume()
            if pkt is None:
                return
            server.deliver(pkt["seq"], service)

    machine.memory.watch_bus.subscribe(nic.rx.tail_addr, on_tail)
    nic.start_rx(DeterministicArrivals(period),
                 machine.rngs.stream("rx"), max_packets=packets)
    machine.run(until=packets * period * 10 + 1_000_000)
    return machine, server


class TestIoServers:
    def test_all_designs_serve_every_packet(self):
        for cls in (InterruptIoServer, PollingIoServer, MwaitIoServer):
            _machine, server = drive_server(cls)
            assert server.completed == 20, cls.__name__

    def test_interrupt_latency_includes_wakeup_chain(self):
        # period far above the wakeup+service cost: every packet finds
        # the server idle and pays the full chain
        costs = CostModel()
        _machine, server = drive_server(InterruptIoServer, period=10_000)
        stats = server.stats()
        assert stats.p50_latency >= costs.baseline_io_wakeup_cycles()

    def test_mwait_latency_close_to_polling(self):
        _machine, mwait = drive_server(MwaitIoServer)
        _machine, polling = drive_server(PollingIoServer)
        assert mwait.stats().p50_latency \
            <= polling.stats().p50_latency + CostModel().hw_wakeup_cycles("rf")

    def test_polling_wastes_idle_cycles(self):
        machine, server = drive_server(PollingIoServer)
        server.finalize()
        stats = server.stats()
        # nearly all non-service time was burned spinning
        assert stats.wasted_cycles > 0.8 * (machine.engine.now
                                            - stats.busy_cycles)

    def test_polling_finalize_idempotent(self):
        machine, server = drive_server(PollingIoServer)
        server.finalize()
        once = server.stats().wasted_cycles
        server.finalize()
        assert server.stats().wasted_cycles == once

    def test_mwait_waste_is_tiny(self):
        machine, server = drive_server(MwaitIoServer)
        assert server.stats().wasted_cycles < 0.01 * machine.engine.now

    def test_queued_packets_skip_wakeup_cost(self):
        # burst of simultaneous packets: one wakeup, N services
        engine = Engine()
        server = MwaitIoServer(engine)
        for i in range(5):
            engine.at(100, server.deliver, i, 300)
        engine.run()
        assert server.wakeups == 1
        assert server.completed == 5

    def test_deliver_rejects_zero_service(self):
        server = MwaitIoServer(Engine())
        with pytest.raises(ConfigError):
            server.deliver(0, 0)

    def test_polling_rejects_zero_iteration(self):
        with pytest.raises(ConfigError):
            PollingIoServer(Engine(), poll_iteration_cycles=0)

    @pytest.mark.parametrize("cycles", [2.5, True])
    def test_polling_rejects_non_integer_iteration(self, cycles):
        with pytest.raises(ConfigError, match="poll_iteration_cycles"):
            PollingIoServer(Engine(), poll_iteration_cycles=cycles)

    @pytest.mark.parametrize("service", [2.5, True])
    def test_deliver_rejects_non_integer_service(self, service):
        server = MwaitIoServer(Engine())
        with pytest.raises(ConfigError, match="service_cycles"):
            server.deliver(0, service)

    def test_mwait_rejects_bad_tier(self):
        with pytest.raises(ConfigError):
            MwaitIoServer(Engine(), tier="tape")
