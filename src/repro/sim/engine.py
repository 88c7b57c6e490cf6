"""The discrete-event loop.

Time is a monotonically non-decreasing integer measured in CPU cycles.
Components schedule plain callbacks with :meth:`Engine.at` /
:meth:`Engine.after`, or spawn generator coroutines via
:meth:`Engine.spawn` (see :mod:`repro.sim.process`).

Pending events live in one binary heap of ``(time, seq, call)`` tuples,
where ``seq`` is a monotone counter, so events dispatch in exactly
``(time, seq)`` order: ties in time break by insertion order, and a
given program produces the same event interleaving on every run.
Cancellation tombstones the entry, and the heap is compacted in place
once dead entries outnumber live ones.

Separately from the main queue, the engine keeps a *step lane*
(:meth:`at_step`): a small heap reserved for CPU-core issue-loop
resumes. Step events dispatch merged with the main queue in global
``(time, seq)`` order -- they are invisible only to
:meth:`next_foreign_event_time`, which the core's busy-cycle
fast-forward uses as its batching horizon. A core mid-burst cannot
affect another core except through main-queue events or by firing the
other core's wake signal, so other cores' per-cycle steps must not cap
the batch (see :meth:`repro.hw.core.HWCore._plan_fast_forward`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Queues smaller than this are never compacted (the scan costs more
#: than the dead entries do).
_COMPACT_MIN_QUEUE = 64


def resolve_queue() -> str:  # kept for perfbench/ until it drops the name
    """The event store's name, as recorded in benchmark manifests."""
    return "heap"


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "step", "_engine")

    def __init__(self, time: int, fn: Callable[..., Any], args: Tuple[Any, ...],
                 engine: "Optional[Engine]" = None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.step = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent, and a no-op
        once the call has been dispatched (the dispatch loop drops the
        engine backref so a late cancel cannot skew the live count)."""
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._note_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time} {getattr(self.fn, '__name__', self.fn)} {state}>"


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
        self._run_until: Optional[int] = None
        self._processes: "List[Any]" = []  # live Process objects (weak bookkeeping)
        # Both lanes are only ever mutated in place (heappush, heappop,
        # slice assignment): run() holds local aliases to them while
        # callbacks schedule, cancel and peek.
        self._queue: List[Tuple[int, int, ScheduledCall]] = []
        # The step lane: core issue-loop resumes, merged into dispatch
        # by (time, seq) but excluded from next_foreign_event_time().
        self._steps: List[Tuple[int, int, ScheduledCall]] = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks dispatched since construction."""
        return self._events_processed

    @property
    def run_until(self) -> Optional[int]:
        """The ``until`` horizon of the innermost active :meth:`run`.

        ``None`` outside a bounded run. Components that skip ahead in
        time (the core's busy-cycle fast-forward) must not jump past
        this, or their catch-up event would be left undispatched when
        the run stops at the horizon.
        """
        return self._run_until

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + int(delay), fn, *args)

    def at_step(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
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
        call = ScheduledCall(time, fn, args, self)
        call.step = True
        heapq.heappush(self._steps, (time, next(self._seq), call))
        self._live += 1
        return call

    def after_step(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Step-lane variant of :meth:`after`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at_step(self._now + int(delay), fn, *args)

    def spawn(self, generator: Any, name: Optional[str] = None) -> "Any":
        """Start a generator coroutine as a simulation process.

        Returns the :class:`~repro.sim.process.Process`. Imported lazily to
        break the module cycle.
        """
        from repro.sim.process import Process

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def _note_cancel(self, call: ScheduledCall) -> None:
        self._live -= 1
        if call.step:
            # step-lane tombstones are rare (an interrupted batch) and
            # few (one per core); dispatch pops them lazily
            return
        queue = self._queue
        # dead-entry estimate: _live spans both lanes, and live step
        # events (at most one per core) make this a slight overcount
        dead = len(queue) + len(self._steps) - self._live
        if dead > len(queue) // 2 and len(queue) >= _COMPACT_MIN_QUEUE:
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
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
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _next_step_time(self) -> Optional[int]:
        """Earliest live step-lane event, or None."""
        steps = self._steps
        while steps and steps[0][2].cancelled:
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

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` to run at absolute ``time``."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        call = ScheduledCall(time, fn, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), call))
        self._live += 1
        return call

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched.

        Returns the simulation time at exit. When ``until`` is given the
        clock is advanced to exactly ``until`` even if the queue drained
        earlier, so rate computations stay meaningful.
        """
        prior_until = self._run_until
        self._run_until = int(until) if until is not None else None
        try:
            queue = self._queue
            steps = self._steps
            pop = heapq.heappop
            dispatched = 0
            while queue or steps:
                # merge the two lanes by (time, seq); seq is shared, so
                # the tuple comparison reproduces the single-queue order
                if steps and (not queue or steps[0] < queue[0]):
                    src = steps
                else:
                    src = queue
                time, _seq, call = src[0]
                if call.cancelled:
                    pop(src)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                pop(src)
                self._now = time
                self._events_processed += 1
                self._live -= 1
                dispatched += 1
                call._engine = None
                call.fn(*call.args)
        finally:
            self._run_until = prior_until
        if until is not None and self._now < until:
            self._now = int(until)
        return self._now


# Aliased to Engine, not HeapEngine: perfbench/'s ledger wraps ``run`` on
# each class it lists except Engine, so a second HeapEngine name would get
# its ``run`` wrapped twice.
WheelEngine = Engine  # kept for perfbench/ until it drops the name
