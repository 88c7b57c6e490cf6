"""The engine fast path: O(1) pending count, lazy compaction,
run_until_idle, and the run_until horizon the core fast-forward reads."""

import pytest

from repro.sim.engine import (_COMPACT_MIN_QUEUE, Engine, HeapEngine,
                              WheelEngine)
from repro.sim.process import AnyOf, Signal, Timeout


# perfbench/ builds engines through both compat names: HeapEngine directly,
# and WheelEngine (= Engine) through Engine.__new__. Both give the one heap
# store, so the fast-path contract is checked through each.
@pytest.fixture(params=["heap", "wheel"])
def make_engine(request):
    return {"heap": HeapEngine, "wheel": WheelEngine}[request.param]


def test_pending_events_counter_tracks_cancel_and_dispatch(make_engine):
    engine = make_engine()
    calls = [engine.at(t, lambda: None) for t in (5, 10, 15)]
    assert engine.pending_events == 3
    engine.cancel(calls[1])
    engine.cancel(calls[1])  # idempotent: must not double-decrement
    assert engine.pending_events == 2
    engine.step()
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_lazy_compaction_prunes_cancelled_entries():
    engine = Engine()
    calls = [engine.at(i + 1, lambda: None)
             for i in range(2 * _COMPACT_MIN_QUEUE)]
    for call in calls[: _COMPACT_MIN_QUEUE + 1]:
        engine.cancel(call)
    # cancelled entries outnumber live ones -> heap was rebuilt
    assert len(engine._queue) == _COMPACT_MIN_QUEUE - 1
    assert engine.pending_events == _COMPACT_MIN_QUEUE - 1
    engine.run()
    assert engine.events_processed == _COMPACT_MIN_QUEUE - 1


def test_run_until_idle_drains_and_returns_last_time(make_engine):
    engine = make_engine()
    seen = []
    engine.at(3, seen.append, "a")
    engine.at(9, seen.append, "b")
    assert engine.run_until_idle() == 9
    assert seen == ["a", "b"]
    assert engine.pending_events == 0


def test_next_event_time_skips_cancelled_heads(make_engine):
    engine = make_engine()
    first = engine.at(4, lambda: None)
    engine.at(7, lambda: None)
    assert engine.next_event_time() == 4
    engine.cancel(first)
    assert engine.next_event_time() == 7


def test_due_now_sees_only_live_events_at_now_in_either_lane():
    engine = Engine()
    assert not engine.due_now()
    later = engine.at(5, lambda: None)
    assert not engine.due_now()           # pending, but not at now
    now = engine.at(0, lambda: None)
    assert engine.due_now()
    engine.cancel(now)
    assert not engine.due_now()           # a dead head at now is skipped
    step = engine.at_step(0, lambda: None)
    assert engine.due_now()               # the step lane counts too
    engine.cancel(step)
    engine.cancel(later)
    assert not engine.due_now()
    seen = []
    engine.at(3, lambda: seen.append(engine.due_now()))
    engine.at(3, lambda: None)
    engine.run()
    assert seen == [True]                 # asked from inside a dispatch


def test_run_until_exposed_only_inside_bounded_run(make_engine):
    engine = make_engine()
    seen = []
    engine.at(5, lambda: seen.append(engine.run_until))
    assert engine.run_until is None
    engine.run(until=50)
    assert seen == [50]
    assert engine.run_until is None
    engine.at(60, lambda: seen.append(engine.run_until))
    engine.run()  # unbounded: no horizon
    assert seen == [50, None]


def test_callback_cancelling_its_own_handle_keeps_count_exact():
    engine = Engine()
    handles = []
    seen = []

    def fire():
        engine.cancel(handles[0])  # already being dispatched: a no-op
        seen.append(engine.pending_events)

    handles.append(engine.at(5, fire))
    engine.at(9, lambda: None)
    engine.run(until=5)
    assert seen == [1]
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_cancel_after_dispatch_is_a_no_op():
    engine = Engine()
    spent = engine.at(3, lambda: None)
    engine.at(8, lambda: None)
    engine.run(until=5)
    assert engine.pending_events == 1
    engine.cancel(spent)
    assert engine.pending_events == 1
    engine.run()
    assert engine.events_processed == 2
    assert engine.pending_events == 0


def test_signal_winning_anyof_cancels_the_timer():
    engine = Engine()
    signal = Signal("wake")
    woken = []

    def sleeper():
        woken.append((yield AnyOf([Timeout(100), signal])))

    engine.spawn(sleeper())
    engine.run(until=1)
    assert engine.pending_events == 1  # the AnyOf timer
    engine.at(10, signal.fire, "go")
    engine.run(until=10)
    assert woken == [(1, "go")]
    assert engine.pending_events == 0
    engine.run()
    assert engine.now == 10 and engine.events_processed == 2
