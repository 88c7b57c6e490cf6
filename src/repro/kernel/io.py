"""The three I/O server designs of Section 2 ("Fast I/O without
Inefficient Polling").

The paper's triangle:

- interrupt-driven I/O keeps the core free but pays the full wakeup
  chain per idle-to-busy transition;
- polling gets minimal delivery latency but "waste[s] one or more
  cores";
- mwait-based hardware threads get polling-like latency *and* free
  cycles for other threads ("letting other threads run until there is
  I/O activity").

Each server is a single consumer fed by :meth:`deliver` (wired to a NIC
callback or a tail-word watch by the experiment driver). Latency is
measured from delivery to service completion; ``wasted_cycles`` counts
cycles the design burned without doing useful work (spin cycles for
polling, delivery overhead for interrupts, wakeup cost for mwait).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.errors import ConfigError, require_int
from repro.kernel.sched import FifoServer
from repro.sim.engine import Engine


@dataclass(frozen=True)
class IoServerStats:
    """End-of-run report for one I/O server."""

    completed: int
    wakeups: int
    busy_cycles: int
    wasted_cycles: int
    mean_latency: float
    p50_latency: float
    p99_latency: float


class _QueueIoServer(FifoServer):
    """Shared machinery: the FIFO serve loop of
    :mod:`repro.kernel.sched`, priced per idle-to-busy wake by each
    design. Drained events pay no further wake: both interrupt
    coalescing and the mwait loop re-block only when none remain."""

    OBS_NAMESPACE = "kernel.io"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 name: str = "ioserver"):
        self.costs = costs or CostModel()
        super().__init__(engine, name, LatencyRecorder(f"{name}.latency"))

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.wakeups", self.wakeups)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles)
        registry.inc(f"{prefix}.wasted_cycles", self.wasted_cycles)
        registry.set(f"{prefix}.pending", self.pending())

    # ------------------------------------------------------------------
    def deliver(self, event_id: int, service_cycles: int) -> None:
        """A packet/completion landed now; queue it for service."""
        require_int("service_cycles", service_cycles, 1)
        self.offer_segment(service_cycles, event_id)

    def pending(self) -> int:
        return len(self._queue)

    @property
    def wasted_cycles(self) -> int:
        """Cycles burned without useful work: every wake, plus the idle
        spin :meth:`PollingIoServer.finalize` charges."""
        return self.overhead_cycles

    def stats(self) -> IoServerStats:
        summary = self.recorder.summary()
        return IoServerStats(
            completed=self.completed,
            wakeups=self.wakeups,
            busy_cycles=self.busy_cycles,
            wasted_cycles=self.wasted_cycles,
            mean_latency=summary.mean,
            p50_latency=summary.p50,
            p99_latency=summary.p99,
        )

    # ------------------------------------------------------------------
    def _release(self, event_id: int, landed: int) -> None:
        """Event ``event_id``, delivered at cycle ``landed``, is served."""
        self.completed += 1
        latency = self.engine.now - landed
        self.recorder.record(latency)
        if self._obs_latency is not None:
            self._obs_latency.record(latency)


class InterruptIoServer(_QueueIoServer):
    """Baseline: blocked thread woken via the IDT chain per idle gap."""

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 cross_core: bool = False, name: str = "irq-io"):
        self.cross_core = cross_core
        super().__init__(engine, costs, name)

    def _wake_cycles(self) -> int:
        return self.costs.baseline_io_wakeup_cycles(cross_core=self.cross_core)


class MwaitIoServer(_QueueIoServer):
    """Proposed: a hardware thread mwait-ing on the queue tail."""

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 tier: str = "rf", name: str = "mwait-io"):
        if tier not in ("rf", "l2", "l3"):
            raise ConfigError(f"unknown storage tier {tier!r}")
        self.tier = tier
        super().__init__(engine, costs, name)

    def _wake_cycles(self) -> int:
        return self.costs.hw_wakeup_cycles(self.tier)


class PollingIoServer(_QueueIoServer):
    """A dedicated core spinning on the ring tail.

    Delivery cost is one poll-loop iteration; the price is that every
    idle cycle is burned spinning (``wasted_cycles`` accumulates the
    idle time at :meth:`finalize`), which is the paper's objection.
    """

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 poll_iteration_cycles: int = 20, name: str = "poll-io"):
        require_int("poll_iteration_cycles", poll_iteration_cycles, 1)
        self.poll_iteration_cycles = poll_iteration_cycles
        self._finalized = False
        self.started_at = engine.now
        super().__init__(engine, costs, name)

    def _wake_cycles(self) -> int:
        # detection happens within one poll-loop iteration; the spin
        # waste itself is accounted at finalize() from idle time
        return self.poll_iteration_cycles

    def finalize(self) -> None:
        """Charge all idle time as spin waste (at run end). Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        elapsed = self.engine.now - self.started_at
        spin = elapsed - self.busy_cycles
        if spin > 0:
            self.overhead_cycles += spin
