"""The two IPC mechanisms.

Baseline microkernel IPC (seL4/Mach lineage, as the paper characterizes
it): the client traps into the kernel (privilege mode switch), the
kernel enqueues the message and invokes the scheduler to dispatch the
service thread (scheduler + software context switch + cache pollution),
and the reply retraces the same path. That double traversal is the
"potentially excessive scheduling delays" of Section 2.

Proposed IPC: the client ``rpush``-es arguments into the (disabled)
service ptid, ``start``-s it, and ``mwait``-s on the reply word; the
service's reply write wakes the client. Per direction: one ptid start
plus a register push plus a monitor wakeup -- tens of cycles.

Both classes expose ``one_way_cycles`` / ``rtt_cycles`` closed forms and
a ``call`` sub-generator for engine-driven runs with queueing.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.kernel.sched import CallServer
from repro.kernel.threads import ContextSwitchAccounting
from repro.sim.engine import Engine


class _ServiceQueue(CallServer):
    """One service thread draining a FIFO of calls (software queuing),
    paying the dispatch cost before every call."""

    def __init__(self, engine: Engine, dispatch_cycles: int):
        self.dispatch_cycles = dispatch_cycles
        super().__init__(engine, "svc")

    def _dispatch_cycles(self, last, job) -> int:
        return self.dispatch_cycles


class SchedulerIpc:
    """Baseline: kernel-mediated IPC through the scheduler."""

    name = "scheduler"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 accounting: Optional[ContextSwitchAccounting] = None):
        self.engine = engine
        self.costs = costs or CostModel()
        self.accounting = accounting or ContextSwitchAccounting(self.costs)
        self.calls = 0
        # dispatching the service thread costs a scheduler pass plus a
        # software context switch (charged per call inside the queue)
        self._service = _ServiceQueue(engine, self._dispatch_cycles())

    def _dispatch_cycles(self) -> int:
        return (self.costs.scheduler_cycles + self.costs.sw_switch_cycles
                + self.costs.cache_pollution_cycles)

    def one_way_cycles(self) -> int:
        """Client-to-service handoff overhead (excluding service work)."""
        return self.costs.mode_switch_cycles + self._dispatch_cycles()

    def rtt_cycles(self, service_work_cycles: int = 0) -> int:
        """Closed-form round trip: both directions plus the work."""
        return 2 * self.one_way_cycles() + service_work_cycles

    def call(self, service_work_cycles: int):
        """Sub-generator: one synchronous IPC (with real queueing)."""
        self.calls += 1
        self.accounting.charge_mode_switch()
        yield self.costs.mode_switch_cycles        # trap into the kernel
        self.accounting.charge_scheduler()
        self.accounting.charge_switch()
        done = self._service.submit(service_work_cycles)
        yield done                                 # service work (queued)
        # reply path: wake the client through the scheduler again
        self.accounting.charge_mode_switch()
        self.accounting.charge_scheduler()
        self.accounting.charge_switch()
        yield self.one_way_cycles()


class DirectStartIpc:
    """Proposed: the client starts the service's hardware thread."""

    name = "direct-start"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 tier: str = "rf"):
        if tier not in ("rf", "l2", "l3"):
            raise ConfigError(f"unknown storage tier {tier!r}")
        self.engine = engine
        self.costs = costs or CostModel()
        self.tier = tier
        self.calls = 0
        self._service = _ServiceQueue(engine, self._dispatch_cycles())

    def _dispatch_cycles(self) -> int:
        # starting the service ptid (it re-disables itself when idle)
        return self.costs.hw_start_cycles(self.tier)

    def one_way_cycles(self) -> int:
        """Handoff overhead: rpush args + start the target ptid."""
        return self.costs.rpull_rpush_cycles + self._dispatch_cycles()

    def rtt_cycles(self, service_work_cycles: int = 0) -> int:
        """Round trip: handoff, work, reply-write wakeup."""
        return (self.one_way_cycles() + service_work_cycles
                + self.costs.monitor_wakeup_cycles
                + self.costs.hw_start_cycles(self.tier))

    def call(self, service_work_cycles: int):
        """Sub-generator: one synchronous direct-start IPC."""
        self.calls += 1
        yield self.costs.rpull_rpush_cycles        # pass parameters
        done = self._service.submit(service_work_cycles)
        yield done                                 # service work (queued)
        # reply write wakes the mwait-ing client
        yield (self.costs.monitor_wakeup_cycles
               + self.costs.hw_start_cycles(self.tier))
