"""The engine against an oracle: a plain list sorted by ``(time, seq)``.

:class:`ListEngine` keeps every pending event in one Python list in
dispatch order; dispatch pops the head and cancellation removes the
entry. It has no tombstones, no compaction and no second lane to merge,
so it is easy to check by eye. The properties below drive both engines
with the same random program -- ``at``/``after``/``at_step``/
``after_step`` scheduling, callbacks that schedule same-time and later
events, cancel pending ones or peek at the queue mid-run, and bounded
``run``/``step`` resumptions in between -- and require identical
observations: dispatch order, ``now``, ``run_until``,
``pending_events``, ``next_event_time()``,
``next_foreign_event_time()`` and every return value.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import _COMPACT_MIN_QUEUE, Engine


class ListCall:
    """The oracle's cancellable handle."""

    def __init__(self, engine: "ListEngine", fn, args) -> None:
        self.engine = engine
        self.fn = fn
        self.args = args

    def cancel(self) -> None:
        self.engine.pending = [entry for entry in self.engine.pending
                               if entry[3] is not self]


class ListEngine:
    """The oracle: pending ``(time, seq, step_lane, call)`` entries in
    one list kept sorted; ``seq`` is shared by both lanes."""

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        self.run_until = None
        self.pending = []
        self._seq = 0

    @property
    def pending_events(self) -> int:
        return len(self.pending)

    def _schedule(self, time, step, fn, args) -> ListCall:
        if time < self.now:
            raise SimulationError(f"t={time} is in the past")
        call = ListCall(self, fn, args)
        bisect.insort(self.pending, (time, self._seq, step, call))
        self._seq += 1
        return call

    def at(self, time, fn, *args):
        return self._schedule(time, False, fn, args)

    def after(self, delay, fn, *args):
        return self._schedule(self.now + delay, False, fn, args)

    def at_step(self, time, fn, *args):
        return self._schedule(time, True, fn, args)

    def after_step(self, delay, fn, *args):
        return self._schedule(self.now + delay, True, fn, args)

    def run(self, until=None, max_events=None) -> int:
        prior, self.run_until = self.run_until, until
        dispatched = 0
        while (self.pending
               and (until is None or self.pending[0][0] <= until)
               and (max_events is None or dispatched < max_events)):
            time, _seq, _step, call = self.pending.pop(0)
            self.now = time
            self.events_processed += 1
            dispatched += 1
            call.fn(*call.args)
        self.run_until = prior
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def step(self) -> bool:
        if not self.pending:
            return False
        self.run(max_events=1)
        return True

    def run_until_idle(self) -> int:
        return self.run()

    def next_event_time(self):
        return self.pending[0][0] if self.pending else None

    def next_foreign_event_time(self):
        return next((time for time, _seq, step, _call in self.pending
                     if not step), None)


class Driver:
    """Runs one program against one engine and logs what it observes.

    Event ``tag`` (its scheduling order) runs behaviour
    ``behaviours[tag % len(behaviours)]`` when it fires. At most
    ``cap`` events are ever scheduled, so callback chains terminate.
    """

    def __init__(self, engine, behaviours) -> None:
        self.engine = engine
        self.behaviours = behaviours
        self.cap = max(150, len(behaviours))
        self.calls = []
        self.log = []

    def observe(self, label) -> None:
        e = self.engine
        self.log.append((label, e.now, e.run_until, e.events_processed,
                         e.pending_events, e.next_event_time(),
                         e.next_foreign_event_time()))

    def fire(self, tag: int) -> None:
        self.log.append(("fire", tag, self.engine.now))
        for action in self.behaviours[tag % len(self.behaviours)]:
            self.apply(action)

    def apply(self, action) -> None:
        kind = action[0]
        if kind == "schedule":
            _, delay, step, absolute = action
            if len(self.calls) >= self.cap:
                return
            e = self.engine
            tag = len(self.calls)
            if absolute:
                schedule = e.at_step if step else e.at
                call = schedule(e.now + delay, self.fire, tag)
            else:
                schedule = e.after_step if step else e.after
                call = schedule(delay, self.fire, tag)
            self.calls.append(call)
        elif kind == "cancel":
            if self.calls:
                self.calls[action[1] % len(self.calls)].cancel()
        elif kind == "peek":
            self.observe("peek")

    def top(self, op) -> None:
        e = self.engine
        kind = op[0]
        if kind == "run_until":
            result = e.run(until=e.now + op[1])
        elif kind == "run_max":
            result = e.run(max_events=op[1])
        elif kind == "run_both":
            result = e.run(until=e.now + op[1], max_events=op[2])
        elif kind == "step":
            result = e.step()
        elif kind == "run_until_idle":
            result = e.run_until_idle()
        else:
            self.apply(op)
            result = None
        self.log.append(("returned", kind, result))
        self.observe(kind)


def run_both(behaviours, program):
    """The two engines' logs for one program, drained at the end."""
    logs = []
    for engine in (Engine(), ListEngine()):
        driver = Driver(engine, behaviours)
        for op in program + [("run_until_idle",)]:
            driver.top(op)
        logs.append(driver.log)
    return logs


_delay = st.integers(min_value=0, max_value=12)   # 0: same-time event
_schedule = st.tuples(st.just("schedule"), _delay, st.booleans(),
                      st.booleans())
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0,
                                                   max_value=10_000))
_action = st.one_of(_schedule, _cancel, st.just(("peek",)))
_behaviours = st.lists(st.lists(_action, max_size=3), min_size=1,
                       max_size=8)
_run = st.one_of(
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("run_both"), st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=6)),
    st.just(("step",)),
)
_program = st.lists(st.one_of(_schedule, _schedule, _cancel, _run),
                    max_size=40)


@given(behaviours=_behaviours, program=_program)
@settings(max_examples=300, deadline=None)
def test_engine_matches_list_model(behaviours, program):
    engine_log, model_log = run_both(behaviours, program)
    assert engine_log == model_log


@given(survivor_every=st.integers(min_value=3, max_value=10),
       same_time=st.integers(min_value=1, max_value=4),
       extra=st.integers(min_value=0, max_value=3 * _COMPACT_MIN_QUEUE),
       resume=st.lists(_run, max_size=6))
@settings(max_examples=40, deadline=None)
def test_mass_cancel_mid_run_matches_list_model(survivor_every, same_time,
                                                extra, resume):
    # grow well past the compaction floor, then let one callback cancel
    # most of the queue, schedule same-time and later events, and peek
    size = 2 * _COMPACT_MIN_QUEUE + extra
    # event 0 (the purge) at t=1; events 1..size at t >= 10, grouped
    # ``same_time`` to a timestamp. Event 1 survives and heads the heap,
    # so without compaction every doomed entry would still be in it.
    purge = [("cancel", i) for i in range(1, size + 1)
             if (i - 1) % survivor_every]
    purge += [("schedule", 0, False, False), ("peek",),
              ("schedule", 3, True, True), ("schedule", 5, False, True),
              ("peek",)]
    behaviours = [purge] + [[]] * (size + 8)
    program = [("schedule", 1, False, True)]
    program += [("schedule", 10 + (i - 1) // same_time, False, True)
                for i in range(1, size + 1)]
    program += [("run_until", 1)]
    engine_log, model_log = run_both(behaviours, program + resume)
    assert engine_log == model_log

    engine = Engine()
    driver = Driver(engine, behaviours)
    for op in program:
        driver.top(op)
    assert len(engine._queue) < size  # the purge compacted the heap
