"""Single-server queueing disciplines.

Section 4 ("Support for Thread Scheduling"): executing runnable
hardware threads "in a fine-grain, round-robin (RR) manner ... emulates
processor sharing (PS)", and "the combination of PS scheduling with
thread-per-request will actually provide superior performance for
server workloads with high execution-time variability".

Three disciplines make that claim testable:

- :class:`FifoServer` -- run-to-completion FCFS: what a baseline kernel
  does when it cannot afford preemption (per-switch cost too high).
- :class:`RoundRobinServer` -- preemptive RR with a configurable
  quantum and a per-switch cost: software time-slicing. As the quantum
  shrinks it approaches PS, but the switch cost blows up -- that
  tension is the ablation of E12.
- :class:`ProcessorSharingServer` -- exact (fluid) PS with zero switch
  cost: the paper's hardware fine-grain RR.

One serve loop
--------------
:class:`RoundRobinServer` holds the simulator's only loop that drains
a single server's FIFO queue, one generator process per server. It
charges only the transitions the paper prices. A *wake*
(:meth:`~RoundRobinServer._wake_cycles`) is paid once per idle-to-busy
transition; jobs queued meanwhile drain without another. A *dispatch*
(:meth:`~RoundRobinServer._dispatch_cycles`) is paid before each slice:
RR's switch cost between two different jobs. A *slice* is at most
``quantum`` cycles, after which an unfinished job rejoins the tail;
FIFO has no quantum. Wakes and dispatches add up in
``overhead_cycles``, slices in ``busy_cycles``. The other single
servers subclass :class:`FifoServer` only to price a transition or to
report a completion (:meth:`QueueingServer._release`): the I/O servers
of :mod:`repro.kernel.io` price the wake, and a :class:`CallServer`
fires each call's done signal. SplitX's hypervisor core
(:mod:`repro.hypervisor.exits`) is a plain :class:`CallServer`; the
microkernel service thread (:mod:`repro.microkernel.ipc`) prices a
dispatch before every call.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import deque
from operator import itemgetter
from typing import Deque, List, Optional, Tuple

from repro.analysis.stats import LatencyRecorder
from repro.errors import require_int
from repro.obs.timeline import ThreadState
from repro.sim.engine import Engine, Event
from repro.sim.process import Signal
from repro.workloads.requests import Request


class QueueingServer(abc.ABC):
    """Common surface: feed requests with :meth:`offer` at arrival time.

    The servers also take bare *segments*
    (:meth:`ProcessorSharingServer.offer_segment`,
    :meth:`RoundRobinServer.offer_segment`): a burst of CPU cycles with
    an owner whose ``segment_done()`` runs at completion. A segment has
    no :class:`Request` record and adds no sample to :attr:`recorder`;
    it is counted in :attr:`completed` and, under an obs session,
    sampled in the latency histogram like a request.
    """

    #: Prefix of the metric source a server registers under an obs
    #: session; None registers no source.
    OBS_NAMESPACE: Optional[str] = "kernel.sched"

    def __init__(self, engine: Engine, name: str = "",
                 recorder: Optional[LatencyRecorder] = None):
        self.engine = engine
        self.name = name or type(self).__name__
        self.recorder = recorder or LatencyRecorder(self.name)
        self.completed = 0
        self.busy_cycles = 0
        self.overhead_cycles = 0
        # observability: servers often run on a bare Engine with no
        # Machine around them, so they hook into the ambient obs session
        # (if one is active) instead; None keeps the hot path a single
        # attribute check
        self._obs_latency = None
        self._obs_timeline = None
        self._obs_track = 0
        import repro.obs as obs
        session = obs.active() if self.OBS_NAMESPACE else None
        if session is not None:
            slug = "_".join(self.name.split()).lower()
            prefix = session.register_source(
                f"{self.OBS_NAMESPACE}.{slug}", self._fill_metrics)
            self._obs_latency = session.registry.histogram(
                f"{prefix}.latency_cycles")
            self._obs_timeline = session.timeline
            self._obs_track = session.register_track(prefix)

    def _obs_transition(self, state) -> None:
        """Record a busy/blocked span edge on the session timeline (the
        serve loop calls this only when instrumentation is on)."""
        self._obs_timeline.transition(self._obs_track, 0, state,
                                      self.engine.now)

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles)
        registry.inc(f"{prefix}.overhead_cycles", self.overhead_cycles)
        registry.set(f"{prefix}.in_flight", self.in_flight())

    @abc.abstractmethod
    def offer(self, request: Request) -> None:
        """A request arrives now (engine.now == request.arrival_time)."""

    @abc.abstractmethod
    def in_flight(self) -> int:
        """Requests admitted but not finished."""

    def _finish(self, request: Request) -> None:
        finish = float(self.engine._now)
        request.finish_time = finish
        self.completed += 1
        latency = finish - request.arrival_time
        self.recorder.record(latency)
        if self._obs_latency is not None:
            self._obs_latency.record(latency)
        done = request.payload.get("done")
        if done is not None:
            done.fire(request)

    def _release(self, job, offered: Optional[int]) -> None:
        """``job`` completed now: a :class:`Request` offered whole when
        ``offered`` is None, else the owner of a segment offered at
        cycle ``offered``."""
        if offered is None:
            self._finish(job)
            return
        self.completed += 1
        if self._obs_latency is not None:
            self._obs_latency.record(float(self.engine._now) - offered)
        job.segment_done()


def feed_trace(engine: Engine, server: QueueingServer,
               trace: List[Request]) -> None:
    """Schedule ``server.offer`` at every request's arrival time."""
    for request in trace:
        engine.at(int(round(request.arrival_time)), server.offer, request)


class RoundRobinServer(QueueingServer):
    """Preemptive round robin with per-switch overhead: the one serve
    loop (see the module docstring).

    ``quantum`` is the time slice; ``switch_cost`` the cycles charged
    whenever the server switches between two *different* jobs (the
    software context-switch tax; zero models hardware RR).
    """

    def __init__(self, engine: Engine, quantum: Optional[int],
                 switch_cost: int = 0, name: str = "",
                 recorder: Optional[LatencyRecorder] = None):
        if quantum is not None:  # None: FifoServer, no time slice
            require_int("quantum", quantum, 1)
        require_int("switch_cost", switch_cost, 0)
        super().__init__(engine, name, recorder)
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.wakeups = 0
        # (remaining cycles, job, offered): offered is None for a Request
        self._queue: Deque[Tuple[int, object, Optional[int]]] = deque()
        self._arrival = Signal(f"{self.name}.arrival")
        self._active = 0
        engine.spawn(self._serve(), name=f"{self.name}.server")

    def offer(self, request: Request) -> None:
        self._admit(request.service_cycles, request, None)

    def offer_segment(self, cycles: int, owner) -> None:
        """``cycles`` of CPU work arrive now; ``owner.segment_done()``
        runs when they complete (see :class:`QueueingServer`)."""
        self._admit(cycles, owner, self.engine._now)

    def _admit(self, cycles: float, job, offered: Optional[int]) -> None:
        self._queue.append((max(1, int(round(cycles))), job, offered))
        self._arrival.fire()

    def in_flight(self) -> int:
        return len(self._queue) + self._active

    def _wake_cycles(self) -> int:
        """The idle-to-busy transition's cost, paid once per busy
        period before its first job."""
        return 0

    def _dispatch_cycles(self, last, job) -> int:
        """The cost of turning to ``job`` after a slice of ``last`` (None
        at first): the switch cost between two different jobs."""
        if last is None or last is job:
            return 0
        return self.switch_cost

    def _serve(self):
        timeline = self._obs_timeline
        quantum, last = self.quantum, None
        while True:
            while not self._queue:
                if timeline is not None:
                    self._obs_transition(ThreadState.MWAIT)
                yield self._arrival
            if timeline is not None:
                self._obs_transition(ThreadState.RUNNING)
            self.wakeups += 1
            cost = self._wake_cycles()
            if cost:
                yield cost
                self.overhead_cycles += cost
            # drain the queue without further wakeups: the server
            # re-blocks only when no job remains
            while self._queue:
                remaining, job, offered = self._queue.popleft()
                self._active = 1
                if offered is None and job.start_time is None:
                    job.start_time = float(self.engine._now)
                cost = self._dispatch_cycles(last, job)
                last = job
                if cost:
                    yield cost
                    self.overhead_cycles += cost
                service = (remaining if quantum is None or remaining <= quantum
                           else quantum)
                yield service
                self.busy_cycles += service
                self._active = 0
                if remaining > service:
                    self._queue.append((remaining - service, job, offered))
                else:
                    self._release(job, offered)


class FifoServer(RoundRobinServer):
    """FCFS run-to-completion (no preemption, no switch cost): the
    serve loop with no quantum."""

    def __init__(self, engine: Engine, name: str = "",
                 recorder: Optional[LatencyRecorder] = None):
        super().__init__(engine, None, 0, name, recorder)


class CallServer(FifoServer):
    """FIFO service of synchronous calls that registers no metric
    source: :meth:`submit` returns the signal fired when a call's work
    completes."""

    OBS_NAMESPACE = None

    def submit(self, work_cycles: int) -> Signal:
        done = Signal(f"{self.name}.done")
        self.offer_segment(work_cycles, done)
        return done

    def _release(self, done: Signal, offered: int) -> None:
        done.fire()


class ProcessorSharingServer(QueueingServer):
    """Exact fluid processor sharing (the hardware fine-grain RR limit).

    With ``n`` active jobs on ``servers`` cores each job progresses at
    rate ``min(1, servers/n)`` (M/G/m round robin in the fluid limit).
    State is advanced lazily at arrival/completion events, so the
    simulation is event-exact with no quantum artifacts and no switch
    cost -- per the paper, hardware multiplexing makes the switch free.

    Every job progresses at the *same* rate between events, so instead
    of rewriting per-job remaining-work at each event (O(jobs) per
    event, quadratic under load) the server keeps one global
    virtual-progress accumulator and stores each job in a heap keyed by
    ``remaining-at-arrival + progress-at-arrival``; a job is done when
    the accumulator passes its key. Every event is O(log jobs).
    """

    #: A job completes once its key is within this many virtual cycles
    #: of the progress accumulator -- absorbing the integer rounding of
    #: the completion timer without ever force-popping an undone job.
    COMPLETION_EPSILON = 0.5

    def __init__(self, engine: Engine, name: str = "",
                 recorder: Optional[LatencyRecorder] = None,
                 servers: int = 1):
        require_int("servers", servers, 1)
        super().__init__(engine, name, recorder)
        self.servers = servers
        self._progress = 0.0  # per-job virtual progress since t=0
        # (service + progress-at-arrival, arrival seq, job, offered);
        # the seq both breaks ties deterministically and preserves the
        # finish order of the old per-job list (insertion order). job
        # and offered are what _release takes.
        self._heap: List[Tuple[float, int, object, Optional[int]]] = []
        self._seq = itertools.count()
        self._last_update = 0
        self._pending_completion: Optional[Event] = None
        self._deadline = 0  # absolute fire time of _pending_completion

    def offer(self, request: Request) -> None:
        request.start_time = float(self.engine._now)
        self._admit(request.service_cycles, request, None)

    def offer_segment(self, cycles: int, owner) -> None:
        """``cycles`` of CPU work arrive now; ``owner.segment_done()``
        runs when they complete (see :class:`QueueingServer`)."""
        self._admit(cycles, owner, self.engine._now)

    def _admit(self, cycles: float, job, offered: Optional[int]) -> None:
        self._advance()
        svc = float(cycles)
        key = (svc if svc > 1.0 else 1.0) + self._progress
        heapq.heappush(self._heap, (key, next(self._seq), job, offered))
        self._reschedule()

    def in_flight(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Accumulate the shared progress since the last event."""
        now = self.engine._now
        elapsed = now - self._last_update
        self._last_update = now
        n = len(self._heap)
        if not n or elapsed <= 0:
            return
        servers = self.servers
        self.busy_cycles += elapsed * (n if n < servers else servers)
        self._progress += elapsed * (1.0 if n <= servers else servers / n)

    def _reschedule(self) -> None:
        """(Re)arm the completion timer -- the lazy-deadline pattern.

        An arrival can only *delay* the head job's completion (more
        jobs, lower per-job rate), so the armed deadline is kept and
        the early fire re-validates and re-arms; the common arrival
        path therefore schedules zero engine cancels. Only an arrival
        whose own completion lands strictly before the armed deadline
        (a short job entering a long queue) cancels and re-arms.
        """
        heap = self._heap
        if not heap:
            return
        min_remaining = heap[0][0] - self._progress
        # next completion after min_remaining / per-job-rate of wall time
        n = len(heap)
        servers = self.servers
        slowdown = 1.0 if n <= servers else n / servers
        delay = int(round(min_remaining * slowdown))
        due = self.engine._now + (delay if delay > 1 else 1)
        pending = self._pending_completion
        if pending is not None:
            if due >= self._deadline:
                return
            self.engine.cancel(pending)
        self._deadline = due
        self._pending_completion = self.engine.at(due, self._complete)

    def _complete(self) -> None:
        self._pending_completion = None
        self._advance()
        heap = self._heap
        threshold = self._progress + self.COMPLETION_EPSILON
        if heap and heap[0][0] <= threshold:
            heappop = heapq.heappop
            first = heappop(heap)
            if not (heap and heap[0][0] <= threshold):
                # the common single-finish fire
                self._release(first[2], first[3])
            else:
                finished = [first]
                while heap and heap[0][0] <= threshold:
                    finished.append(heappop(heap))
                finished.sort(key=itemgetter(1))  # arrival order
                for _key, _seq, job, offered in finished:
                    self._release(job, offered)
        # Nothing due means this was a stale (lazy) deadline fired at
        # the pre-arrival rate, or integer rounding undershot; either
        # way re-arm from current state. Progress strictly increases
        # between fires (delay >= 1, rate > 0), so this converges.
        self._reschedule()
