"""Event delivery: IDT interrupts vs monitor/mwait dispatch.

Section 2 ("No More Interrupts"): instead of registering handlers in
the interrupt descriptor table, "the kernel can designate a hardware
thread per core per interrupt type", each blocked on a memory address;
the event trigger writes that address and "the hardware thread becomes
runnable and handles the event without the need to jump into an IRQ
context and the associated overheads".

Both paths here consume the *same* device event stream and invoke the
same handler; only the delivery machinery (and its cost) differs:

- :class:`IdtInterruptPath` -- hard-IRQ entry, handler, IRQ exit; if the
  event must wake a blocked thread, add scheduler + context switch +
  cache pollution (+ an IPI if the target runs on another core).
- :class:`HwThreadDispatch` -- a watch on the event word; wakeup charges
  the monitor-to-runnable latency plus the storage-tier start cost.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.kernel.threads import ContextSwitchAccounting
from repro.mem.memory import Memory

Handler = Callable[[int], None]


class IdtInterruptPath:
    """Baseline delivery through the interrupt descriptor table.

    ``raise_irq(event_id)`` models the full Section 1 chain and invokes
    ``handler(event_id)`` when the woken thread actually starts running.
    Delivery latency per event is recorded in ``recorder``.
    """

    def __init__(self, engine, costs: Optional[CostModel] = None,
                 handler: Optional[Handler] = None,
                 wakes_blocked_thread: bool = True,
                 cross_core: bool = False,
                 handler_cycles: int = 0,
                 accounting: Optional[ContextSwitchAccounting] = None,
                 name: str = "idt"):
        self.engine = engine
        self.costs = costs or CostModel()
        self.handler = handler
        self.wakes_blocked_thread = wakes_blocked_thread
        self.cross_core = cross_core
        self.handler_cycles = handler_cycles
        self.accounting = accounting or ContextSwitchAccounting(self.costs)
        self.recorder = LatencyRecorder(f"{name}.delivery")
        self.events_delivered = 0

    # ------------------------------------------------------------------
    def delivery_cycles(self) -> int:
        """Event-to-handler-start latency for one interrupt."""
        cycles = self.accounting.charge_irq()
        if self.cross_core:
            cycles += self.accounting.charge_ipi()
        if self.wakes_blocked_thread:
            cycles += self.accounting.charge_scheduler()
            cycles += self.accounting.charge_switch()
        return cycles

    def raise_irq(self, event_id: int) -> None:
        """A device raised an interrupt for ``event_id`` now."""
        raised_at = self.engine.now
        delay = self.delivery_cycles()

        def start_handler() -> None:
            self.recorder.record(self.engine.now - raised_at)
            self.events_delivered += 1
            if self.handler is not None:
                if self.handler_cycles:
                    self.engine.after(self.handler_cycles,
                                      self.handler, event_id)
                else:
                    self.handler(event_id)

        self.engine.after(delay, start_handler)


class HwThreadDispatch:
    """Proposed delivery: a hardware thread mwait-ing on an event word.

    Arms a watch on ``event_addr``; every write there wakes the
    (modeled) handler ptid after ``monitor_wakeup + start(tier)``
    cycles. The behavioral twin of the ISA-level mwait loop -- E02 runs
    both and checks they agree.
    """

    def __init__(self, engine, memory: Memory, event_addr: int,
                 costs: Optional[CostModel] = None,
                 handler: Optional[Handler] = None,
                 tier: str = "rf",
                 handler_cycles: int = 0,
                 name: str = "hwdispatch"):
        if tier not in ("rf", "l2", "l3"):
            raise ConfigError(f"unknown storage tier {tier!r}")
        self.engine = engine
        self.memory = memory
        self.event_addr = event_addr
        self.costs = costs or CostModel()
        self.handler = handler
        self.tier = tier
        self.handler_cycles = handler_cycles
        self.recorder = LatencyRecorder(f"{name}.delivery")
        self.events_delivered = 0
        self._handler_busy_until = 0
        memory.watch_bus.subscribe(event_addr, self._wake, owner="hwdispatch")

    # ------------------------------------------------------------------
    def delivery_cycles(self) -> int:
        """Write-to-handler-start latency for one wakeup."""
        return self.costs.hw_wakeup_cycles(self.tier)

    def _wake(self, info: dict) -> None:
        raised_at = self.engine.now
        # if the handler thread is already running it processes the new
        # event from its loop without paying another wakeup (it only
        # re-arms mwait when the queue drains)
        if self.engine.now < self._handler_busy_until:
            start_at = self._handler_busy_until
        else:
            start_at = self.engine.now + self.delivery_cycles()

        def start_handler() -> None:
            self.recorder.record(self.engine.now - raised_at)
            self.events_delivered += 1
            if self.handler is not None:
                if self.handler_cycles:
                    self.engine.after(self.handler_cycles, self.handler,
                                      info.get("value", 0))
                else:
                    self.handler(info.get("value", 0))

        self._handler_busy_until = start_at + max(self.handler_cycles, 1)
        self.engine.at(start_at, start_handler)
