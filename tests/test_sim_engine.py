"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.engine import HeapEngine, WheelEngine


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_after_runs_callback_at_right_time():
    engine = Engine()
    seen = []
    engine.after(10, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [10]
    assert engine.now == 10


def test_at_absolute_time():
    engine = Engine()
    seen = []
    engine.at(42, seen.append, "x")
    engine.run()
    assert seen == ["x"]
    assert engine.now == 42


def test_events_fire_in_time_order():
    engine = Engine()
    seen = []
    engine.after(30, seen.append, "c")
    engine.after(10, seen.append, "a")
    engine.after(20, seen.append, "b")
    engine.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    seen = []
    for tag in "abcde":
        engine.after(5, seen.append, tag)
    engine.run()
    assert seen == list("abcde")


def test_scheduling_in_past_raises():
    engine = Engine()
    engine.after(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at(5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Engine().after(-1, lambda: None)


def test_cancel_prevents_dispatch():
    engine = Engine()
    seen = []
    call = engine.after(10, seen.append, "x")
    engine.cancel(call)
    engine.run()
    assert seen == []


def test_cancel_is_idempotent():
    engine = Engine()
    call = engine.after(10, lambda: None)
    engine.cancel(call)
    engine.cancel(call)
    engine.run()


def test_run_until_stops_before_later_events():
    engine = Engine()
    seen = []
    engine.after(10, seen.append, "early")
    engine.after(100, seen.append, "late")
    engine.run(until=50)
    assert seen == ["early"]
    assert engine.now == 50
    engine.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    engine = Engine()
    engine.run(until=1000)
    assert engine.now == 1000


def test_run_max_events():
    engine = Engine()
    seen = []
    for i in range(5):
        engine.after(i + 1, seen.append, i)
    engine.run(max_events=3)
    assert seen == [0, 1, 2]


def test_callbacks_can_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            engine.after(10, chain, n + 1)

    engine.after(10, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3, 4]
    assert engine.now == 50


def test_pending_events_excludes_cancelled():
    engine = Engine()
    engine.after(10, lambda: None)
    call = engine.after(20, lambda: None)
    engine.cancel(call)
    assert engine.pending_events == 1


def test_events_processed_counter():
    engine = Engine()
    for i in range(7):
        engine.after(i, lambda: None)
    engine.run()
    assert engine.events_processed == 7


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_same_time_callback_from_callback_runs_same_run():
    engine = Engine()
    seen = []
    engine.after(10, lambda: engine.at(10, seen.append, "nested"))
    engine.run()
    assert seen == ["nested"]


def test_mass_cancel_mid_run_keeps_later_events():
    # regression: lazy heap compaction used to rebind self._queue while
    # run() held a local alias to the old list, stranding every event
    # scheduled after the compaction in a heap the dispatch loop never
    # looked at (seen in practice as cluster runs stalling with live
    # events pending)
    engine = Engine()
    seen = []
    cancellable = [engine.at(1_000 + i, seen.append, "dead")
                   for i in range(100)]

    def purge():
        for call in cancellable:
            engine.cancel(call)   # crosses the compaction threshold mid-run
        engine.after(5, seen.append, "scheduled-after-compaction")

    engine.at(10, purge)
    engine.at(2_000, seen.append, "tail")
    engine.run()
    assert seen == ["scheduled-after-compaction", "tail"]
    assert engine.pending_events == 0


# the two compat names perfbench/ imports; WheelEngine is Engine itself,
# so its id is spelled out rather than taken from __name__
@pytest.mark.parametrize("engine_cls", [HeapEngine, WheelEngine],
                         ids=["HeapEngine", "WheelEngine"])
def test_next_event_time_mid_run_keeps_later_events(engine_cls):
    # regression, same family as the stranded-event compaction bug
    # below: next_event_time used to pop cancelled heads straight off
    # self._queue while run() held a local alias to it, so peeking from
    # inside a callback after a mass cancel could strand every later
    # event in a list the dispatch loop never looked at again. The peek
    # must prune tombstones with the same in-place discipline as
    # Engine.cancel.
    engine = engine_cls()
    seen = []
    doomed = [engine.at(1_000 + i, seen.append, "dead") for i in range(100)]

    def probe():
        for call in doomed:
            engine.cancel(call)
        assert engine.next_event_time() == 2_000
        engine.after(5, seen.append, "scheduled-after-peek")

    engine.at(10, probe)
    engine.at(2_000, seen.append, "tail")
    engine.run()
    assert seen == ["scheduled-after-peek", "tail"]
    assert engine.pending_events == 0


def test_compaction_preserves_order_and_count():
    engine = Engine()
    seen = []
    doomed = [engine.at(500 + i, seen.append, f"dead{i}")
              for i in range(80)]
    survivors = [engine.at(10_000 + i, seen.append, i) for i in range(5)]

    def purge():
        for call in doomed:
            engine.cancel(call)
        assert engine.pending_events == len(survivors)

    engine.at(100, purge)
    engine.run()
    assert seen == [0, 1, 2, 3, 4]
