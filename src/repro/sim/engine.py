"""The discrete-event loop.

Time is a monotonically non-decreasing integer measured in CPU cycles.
Components schedule plain callbacks with :meth:`Engine.at` /
:meth:`Engine.after`, or spawn generator coroutines via
:meth:`Engine.spawn` (see :mod:`repro.sim.process`).

Pending events live in one binary heap of ``[time, seq, fn, args]``
records, where ``seq`` is a monotone counter, so events dispatch in
exactly ``(time, seq)`` order: ties in time break by insertion order,
and a given program produces the same event interleaving on every run.
The record is the handle scheduling returns; :meth:`Engine.cancel`
tombstones it, and the heap is compacted once dead entries outnumber
live ones.

Separately from the main queue, the engine keeps a *step lane*
(:meth:`at_step`): a small heap reserved for CPU-core issue-loop
resumes. Step events dispatch merged with the main queue in global
``(time, seq)`` order -- they are invisible only to
:meth:`next_foreign_event_time`, which the core's busy-cycle
fast-forward uses as its batching horizon. A core mid-burst cannot
affect another core except through main-queue events or by firing the
other core's wake signal, so other cores' per-cycle steps must not cap
the batch (see :meth:`repro.hw.core.HWCore._plan_fast_forward`).

A core may also *claim* its next step-lane resume (:meth:`claim`)
when it would be the very next dispatch: the clock advances to it in
place, and the claim counts as a processed event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

#: Queues smaller than this are never compacted (the scan costs more
#: than the dead entries do).
_COMPACT_MIN_QUEUE = 64

#: The horizon of an unbounded :meth:`HeapEngine.run`: later than any
#: event time.
_NEVER = float("inf")

#: ``[time, seq, fn, args]``; ``fn`` is None once cancelled or dispatched
Event = List[Any]


def resolve_queue() -> str:  # kept for perfbench/ until it drops the name
    """The event store's name, as recorded in benchmark manifests."""
    return "heap"


class Engine:
    """A minimal but complete discrete-event engine.

    Determinism: ties in time are broken by insertion order, so a given
    program produces the same event interleaving on every run.

    ``Engine()`` returns a :class:`HeapEngine`, which adds :meth:`at`
    and :meth:`run`; everything else is defined here.
    """

    def __new__(cls) -> "Engine":
        return object.__new__(HeapEngine if cls is Engine else cls)

    def __init__(self) -> None:
        self._now: int = 0
        self._seq = itertools.count()
        self._events_processed: int = 0
        self._live: int = 0  # scheduled, not cancelled, not yet dispatched
        # the innermost active run()'s `until`, and the count of
        # processed events its `max_events` stops at (none outside a run)
        self._horizon: float = _NEVER
        self._limit: float = 0
        # Both lanes are only ever mutated in place (heappush, heappop,
        # slice assignment): run() holds local aliases to them while
        # callbacks schedule, cancel and peek.
        self._queue: List[Event] = []
        # The step lane: core issue-loop resumes, merged into dispatch
        # by (time, seq) but excluded from next_foreign_event_time().
        self._steps: List[Event] = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed since construction: callbacks
        dispatched plus step-lane resumes claimed in place
        (:meth:`claim`), so the count does not depend on whether a core
        claimed its rounds or yielded them."""
        return self._events_processed

    @property
    def run_until(self) -> Optional[int]:
        """The ``until`` horizon of the innermost active :meth:`run`.

        ``None`` outside a bounded run. Components that skip ahead in
        time (the core's busy-cycle fast-forward) must not jump past
        this, or their catch-up event would be left undispatched when
        the run stops at the horizon.
        """
        return None if self._horizon == _NEVER else self._horizon

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + int(delay), fn, *args)

    def at_step(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a CPU-core issue-loop resume at absolute ``time``.

        Identical dispatch semantics to :meth:`at` (global
        ``(time, seq)`` order), but the event lives in the step lane and
        is ignored by :meth:`next_foreign_event_time` -- a stepping core
        is not an *external* deadline for another core's batch.
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        event = [time, next(self._seq), fn, args]
        heapq.heappush(self._steps, event)
        self._live += 1
        return event

    def after_step(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Step-lane variant of :meth:`after`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at_step(self._now + int(delay), fn, *args)

    def claim(self, time: int) -> bool:
        """Process a step-lane resume at ``time`` in place.

        A CPU core's issue loop that :meth:`run` resumed itself calls
        this instead of yielding its next round. When no live event in
        either lane is due at or before ``time`` (an equal-time one was
        scheduled first), and ``time`` is within the run's ``until`` and
        ``max_events``, that resume would be the very next dispatch: the
        clock moves to ``time``, the claim counts in
        :attr:`events_processed`, and the result is True. Otherwise
        nothing changes. A callback nested inside another (a signal
        waiter) must not claim: its caller would resume at a moved clock.
        """
        if time > self._horizon or self._events_processed >= self._limit:
            return False
        queue = self._queue
        steps = self._steps
        if (queue and queue[0][0] <= time) or (steps and steps[0][0] <= time):
            # a lane is scanned past cancelled entries only when its
            # head is due by then
            due = self.next_event_time()
            if due is not None and due <= time:
                return False
        self._now = time
        self._events_processed += 1
        return True

    def spawn(self, generator: Any, name: Optional[str] = None) -> "Any":
        """Start a generator coroutine as a simulation process.

        Returns the :class:`~repro.sim.process.Process`. Imported lazily to
        break the module cycle.
        """
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def cancel(self, event: Event) -> None:
        """Stop the event a scheduling call returned from firing, like
        :meth:`sched.scheduler.cancel`. Dispatch clears the callback
        slot too, so a spent or cancelled handle is a no-op here."""
        if event[2] is None:
            return
        event[2] = None
        self._live -= 1
        queue = self._queue
        # dead entries in both lanes: step-lane tombstones are rare (an
        # interrupted batch) and few (one per core)
        dead = len(queue) + len(self._steps) - self._live
        if dead > len(queue) // 2 and len(queue) >= _COMPACT_MIN_QUEUE:
            queue[:] = [entry for entry in queue if entry[2] is not None]
            heapq.heapify(queue)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next pending event. Returns False if none remain."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run_until_idle(self) -> int:
        """Drain the queue completely; returns the time of the last event."""
        return self.run()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def next_foreign_event_time(self) -> Optional[int]:
        """Earliest pending live event *outside the step lane*, or None.

        This is the busy-cycle fast-forward horizon: a batching core
        must stop at the next event that could originate an effect on
        it. Other cores' issue-loop steps are excluded -- their effects
        arrive either as main-queue events (capped here) or by firing
        this core's wake signal (which interrupts the batch).
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _next_step_time(self) -> Optional[int]:
        """Earliest live step-lane event, or None."""
        steps = self._steps
        while steps and steps[0][2] is None:
            heapq.heappop(steps)
        return steps[0][0] if steps else None

    def next_event_time(self) -> Optional[int]:
        """Time of the earliest pending live event, or None when idle.

        Covers both lanes. Safe to call from inside a dispatched
        callback mid-run: cancelled heads are popped in place, never by
        rebinding a list the run loop holds an alias to.
        """
        t = self.next_foreign_event_time()
        s = self._next_step_time()
        if s is not None and (t is None or s < t):
            return s
        return t

    def due_now(self) -> bool:
        """True when a live event is pending at the current time.

        An event scheduled at ``now`` dispatches after every such event
        and before everything later, so when this is False a callback
        that would be scheduled at ``now`` is the very next dispatch --
        provided nothing else runs in between (see
        :meth:`repro.distributed.rpc.RpcServerModel.submit`). Cheap on
        the common answer: a lane is scanned past cancelled entries
        only when its head sits at ``now``.
        """
        now = self._now
        queue = self._queue
        steps = self._steps
        if (queue and queue[0][0] == now) or (steps and steps[0][0] == now):
            return self.next_event_time() == now
        return False

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled callbacks (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} t={self._now} "
                f"pending={self.pending_events}>")


class HeapEngine(Engine):
    """The engine's two entry points into the main heap.

    A subclass only because the benchmark under ``perfbench/`` patches
    ``at`` and ``run`` on this class by name; construct it as
    ``Engine()``.
    """

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute ``time``."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        event = [time, next(self._seq), fn, args]
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched.

        Returns the simulation time at exit. When ``until`` is given the
        clock is advanced to exactly ``until`` even if the queue drained
        earlier, so rate computations stay meaningful.
        """
        prior = self._horizon, self._limit
        # one comparison per event: an unbounded run stops at no time
        horizon = self._horizon = int(until) if until is not None else _NEVER
        first = self._events_processed
        # a claimed resume (claim) counts against max_events too
        self._limit = first + max_events if max_events is not None else _NEVER
        try:
            queue = self._queue
            steps = self._steps
            pop = heapq.heappop
            while queue or steps:
                # merge the two lanes by (time, seq); seq is shared, so
                # the record comparison reproduces the single-queue order
                if steps and (not queue or steps[0] < queue[0]):
                    src = steps
                else:
                    src = queue
                event = src[0]
                fn = event[2]
                if fn is None:
                    pop(src)
                    continue
                time = event[0]
                if time > horizon:
                    break
                if (max_events is not None
                        and self._events_processed - first >= max_events):
                    break
                pop(src)
                event[2] = None
                self._now = time
                self._events_processed += 1
                self._live -= 1
                fn(*event[3])
        finally:
            self._horizon, self._limit = prior
        if until is not None and self._now < until:
            self._now = int(until)
        return self._now


# Aliased to Engine, not HeapEngine: perfbench/'s ledger wraps ``run`` on
# each class it lists except Engine, so a second HeapEngine name would get
# its ``run`` wrapped twice.
WheelEngine = Engine  # kept for perfbench/ until it drops the name
