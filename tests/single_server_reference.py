"""The five single-server loops the simulator had before
:mod:`repro.kernel.sched` kept one: the reference for
``tests/test_single_server_oracle.py``.

Each class is copied verbatim from the last version of its module with
its own loop: :class:`FifoServer` and :class:`RoundRobinServer` from
``repro.kernel.sched``, the I/O servers from ``repro.kernel.io``,
:class:`_ServiceQueue` (the microkernel service thread) from
``repro.microkernel.ipc`` and :class:`SplitXExitPath` (with its
hypervisor core) from ``repro.hypervisor.exits``. They keep every
counter they had, write-only ones included, and may not be edited to
match a change: the oracle compares the simulator against them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.hypervisor.exits import ExitReason
from repro.kernel.io import IoServerStats
from repro.kernel.sched import QueueingServer
from repro.obs.timeline import ThreadState
from repro.sim.engine import Engine
from repro.sim.process import Signal
from repro.workloads.requests import Request


class FifoServer(QueueingServer):
    """FCFS run-to-completion (no preemption, no switch cost)."""

    def __init__(self, engine: Engine, name: str = "",
                 recorder: Optional[LatencyRecorder] = None):
        super().__init__(engine, name, recorder)
        # (cycles, job, offered): offered is None for a whole Request
        self._queue: Deque[Tuple[float, object, Optional[int]]] = deque()
        self._arrival = Signal(f"{self.name}.arrival")
        self._active = 0
        engine.spawn(self._serve(), name=f"{self.name}.server")

    def offer(self, request: Request) -> None:
        self._queue.append((request.service_cycles, request, None))
        self._arrival.fire()

    def offer_segment(self, cycles: int, owner) -> None:
        """``cycles`` of CPU work arrive now; ``owner.segment_done()``
        runs when they complete (see :class:`QueueingServer`)."""
        self._queue.append((cycles, owner, self.engine._now))
        self._arrival.fire()

    def in_flight(self) -> int:
        return len(self._queue) + self._active

    def _serve(self):
        timeline = self._obs_timeline
        while True:
            while not self._queue:
                if timeline is not None:
                    self._obs_transition(ThreadState.MWAIT)
                yield self._arrival
            if timeline is not None:
                self._obs_transition(ThreadState.RUNNING)
            cycles, job, offered = self._queue.popleft()
            self._active = 1
            if offered is None:
                job.start_time = float(self.engine.now)
            service = max(1, int(round(cycles)))
            yield service
            self.busy_cycles += service
            self._active = 0
            self._release(job, offered)


class RoundRobinServer(QueueingServer):
    """Preemptive round robin with per-switch overhead.

    ``quantum`` is the time slice; ``switch_cost`` the cycles charged
    whenever the server switches between two *different* jobs (the
    software context-switch tax; zero models hardware RR).
    """

    def __init__(self, engine: Engine, quantum: int,
                 switch_cost: int = 0, name: str = "",
                 recorder: Optional[LatencyRecorder] = None):
        if quantum < 1:
            raise ConfigError(f"quantum must be >= 1, got {quantum}")
        if switch_cost < 0:
            raise ConfigError(f"switch cost must be >= 0, got {switch_cost}")
        super().__init__(engine, name, recorder)
        self.quantum = quantum
        self.switch_cost = switch_cost
        self._queue: Deque[Tuple[Request, int]] = deque()
        self._arrival = Signal(f"{self.name}.arrival")
        self._active = 0
        self._last_tid: Optional[int] = None
        engine.spawn(self._serve(), name=f"{self.name}.server")

    def offer(self, request: Request) -> None:
        remaining = max(1, int(round(request.service_cycles)))
        self._queue.append((request, remaining))
        self._arrival.fire()

    def in_flight(self) -> int:
        return len(self._queue) + self._active

    def _serve(self):
        timeline = self._obs_timeline
        while True:
            while not self._queue:
                if timeline is not None:
                    self._obs_transition(ThreadState.MWAIT)
                yield self._arrival
            if timeline is not None:
                self._obs_transition(ThreadState.RUNNING)
            request, remaining = self._queue.popleft()
            self._active = 1
            if request.start_time is None:
                request.start_time = float(self.engine.now)
            if self._last_tid is not None and self._last_tid != request.req_id:
                if self.switch_cost:
                    yield self.switch_cost
                    self.overhead_cycles += self.switch_cost
            self._last_tid = request.req_id
            slice_cycles = min(self.quantum, remaining)
            yield slice_cycles
            self.busy_cycles += slice_cycles
            remaining -= slice_cycles
            self._active = 0
            if remaining > 0:
                self._queue.append((request, remaining))
            else:
                self._finish(request)


class _QueueIoServer:
    """Shared machinery: FIFO queue + single server process."""

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 name: str = "ioserver"):
        self.engine = engine
        self.costs = costs or CostModel()
        self.name = name
        self.recorder = LatencyRecorder(f"{name}.latency")
        self._queue: Deque[Tuple[int, int, int]] = deque()  # (id, svc, t)
        self._arrival = Signal(f"{name}.arrival")
        self._idle = True
        self.completed = 0
        self.wakeups = 0
        self.busy_cycles = 0
        self.wasted_cycles = 0
        self.started_at = engine.now
        # observability: hook the ambient obs session, if one is active
        # (I/O servers run on bare Engines, outside any Machine)
        self._obs_latency = None
        self._obs_timeline = None
        self._obs_track = 0
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            slug = "_".join(name.split()).lower()
            prefix = session.register_source(f"kernel.io.{slug}",
                                             self._fill_metrics)
            self._obs_latency = session.registry.histogram(
                f"{prefix}.latency_cycles")
            self._obs_timeline = session.timeline
            self._obs_track = session.register_track(prefix)
        engine.spawn(self._serve(), name=f"{name}.server")

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.wakeups", self.wakeups)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles)
        registry.inc(f"{prefix}.wasted_cycles", self.wasted_cycles)
        registry.set(f"{prefix}.pending", self.pending())

    # ------------------------------------------------------------------
    def deliver(self, event_id: int, service_cycles: int) -> None:
        """A packet/completion landed now; queue it for service."""
        if service_cycles < 1:
            raise ConfigError("service must be at least one cycle")
        self._queue.append((event_id, service_cycles, self.engine.now))
        self._arrival.fire()

    def pending(self) -> int:
        return len(self._queue)

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
    def _wake_cost_cycles(self) -> int:
        """Idle-to-running transition cost; overridden per design."""
        raise NotImplementedError

    def _serve(self):
        timeline = self._obs_timeline
        while True:
            while not self._queue:
                self._idle = True
                if timeline is not None:
                    timeline.transition(self._obs_track, 0,
                                        ThreadState.MWAIT,
                                        self.engine.now)
                yield self._arrival
            self._idle = False
            if timeline is not None:
                timeline.transition(self._obs_track, 0,
                                    ThreadState.RUNNING, self.engine.now)
            cost = self._wake_cost_cycles()
            self.wakeups += 1
            if cost:
                self.wasted_cycles += cost
                yield cost
            # drain the queue without further wakeups: the handler only
            # re-blocks when no events remain (both interrupt coalescing
            # and the mwait loop behave this way)
            while self._queue:
                event_id, service, landed = self._queue.popleft()
                yield service
                self.busy_cycles += service
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

    def _wake_cost_cycles(self) -> int:
        return self.costs.baseline_io_wakeup_cycles(cross_core=self.cross_core)


class MwaitIoServer(_QueueIoServer):
    """Proposed: a hardware thread mwait-ing on the queue tail."""

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 tier: str = "rf", name: str = "mwait-io"):
        if tier not in ("rf", "l2", "l3"):
            raise ConfigError(f"unknown storage tier {tier!r}")
        self.tier = tier
        super().__init__(engine, costs, name)

    def _wake_cost_cycles(self) -> int:
        return self.costs.hw_wakeup_cycles(self.tier)


class PollingIoServer(_QueueIoServer):
    """A dedicated core spinning on the ring tail.

    Delivery cost is one poll-loop iteration; the price is that every
    idle cycle is burned spinning (``wasted_cycles`` accumulates the
    idle time at :meth:`finalize`), which is the paper's objection.
    """

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 poll_iteration_cycles: int = 20, name: str = "poll-io"):
        if poll_iteration_cycles < 1:
            raise ConfigError("poll iteration must be at least one cycle")
        self.poll_iteration_cycles = poll_iteration_cycles
        self._finalized = False
        super().__init__(engine, costs, name)

    def _wake_cost_cycles(self) -> int:
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
            self.wasted_cycles += spin


class _ServiceQueue:
    """One service thread draining a FIFO of calls (software queuing)."""

    def __init__(self, engine: Engine, dispatch_cycles: int):
        self.engine = engine
        self.dispatch_cycles = dispatch_cycles
        self._queue: Deque[Tuple[int, Signal]] = deque()
        self._arrival = Signal("svc.arrival")
        self.busy_cycles = 0
        self.calls_served = 0
        engine.spawn(self._serve(), name="svc.thread")

    def submit(self, work_cycles: int) -> Signal:
        done = Signal("svc.done")
        self._queue.append((max(1, work_cycles), done))
        self._arrival.fire()
        return done

    def _serve(self):
        while True:
            while not self._queue:
                yield self._arrival
            work, done = self._queue.popleft()
            if self.dispatch_cycles:
                yield self.dispatch_cycles
            yield work
            self.busy_cycles += work
            self.calls_served += 1
            done.fire()


class SplitXExitPath:
    """SplitX: exits shipped to a dedicated hypervisor core.

    The guest writes an exit record into shared memory (cheap), the
    hypervisor core picks it up, handles it, and writes the reply. Per
    exit the guest pays two one-way communication delays plus queueing
    at the single hypervisor core -- fine until the hypervisor core
    saturates, which is SplitX's scaling limit (it also permanently
    consumes that core).
    """

    name = "splitx"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 comm_cycles: int = 200):
        if comm_cycles < 1:
            raise ConfigError("communication cost must be >= 1 cycle")
        self.engine = engine
        self.costs = costs or CostModel()
        self.comm_cycles = comm_cycles
        self.exits = 0
        self.hv_core_busy_cycles = 0
        self._queue: Deque[Tuple[int, Signal]] = deque()
        self._arrival = Signal("splitx.arrival")
        engine.spawn(self._hypervisor_core(), name="splitx.hvcore")

    def overhead_cycles(self) -> int:
        """Per-exit overhead excluding handler work and queueing."""
        return 2 * self.comm_cycles

    def exit(self, reason: ExitReason, handler_work_cycles: int):
        """Sub-generator: ship the exit and wait for the reply."""
        self.exits += 1
        yield self.comm_cycles  # request cacheline travels to the hv core
        done = Signal("splitx.done")
        self._queue.append((max(1, handler_work_cycles), done))
        self._arrival.fire()
        yield done
        yield self.comm_cycles  # reply travels back

    def _hypervisor_core(self):
        while True:
            while not self._queue:
                yield self._arrival
            work, done = self._queue.popleft()
            yield work
            self.hv_core_busy_cycles += work
            done.fire()
