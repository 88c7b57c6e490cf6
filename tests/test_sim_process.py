"""Unit tests for processes, signals, and combinators."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Signal, Timeout


def test_process_timeout_advances_clock():
    engine = Engine()
    times = []

    def body():
        yield 10
        times.append(engine.now)
        yield Timeout(5)
        times.append(engine.now)

    engine.spawn(body())
    engine.run()
    assert times == [10, 15]


def test_process_return_value_exposed_as_result():
    engine = Engine()

    def body():
        yield 1
        return 99

    proc = engine.spawn(body())
    engine.run()
    assert proc.result == 99
    assert not proc.alive


def test_join_returns_child_result():
    engine = Engine()
    got = []

    def child():
        yield 10
        return "done"

    def parent():
        value = yield engine.spawn(child())
        got.append((engine.now, value))

    engine.spawn(parent())
    engine.run()
    assert got == [(10, "done")]


def test_join_on_finished_process_resumes_immediately():
    engine = Engine()
    got = []

    def child():
        yield 1
        return 7

    child_proc = engine.spawn(child())

    def parent():
        yield 100  # child long done by now
        value = yield child_proc
        got.append(value)

    engine.spawn(parent())
    engine.run()
    assert got == [7]


def test_signal_wakes_waiter_with_value():
    engine = Engine()
    sig = Signal("s")
    got = []

    def waiter():
        value = yield sig
        got.append((engine.now, value))

    engine.spawn(waiter())
    engine.after(25, sig.fire, "payload")
    engine.run()
    assert got == [(25, "payload")]


def test_signal_broadcast_wakes_all_waiters():
    engine = Engine()
    sig = Signal()
    got = []

    def waiter(tag):
        yield sig
        got.append(tag)

    for tag in range(3):
        engine.spawn(waiter(tag))
    engine.after(5, sig.fire)
    engine.run()
    assert sorted(got) == [0, 1, 2]


def test_signal_is_edge_triggered():
    engine = Engine()
    sig = Signal()
    got = []

    def late_waiter():
        yield 50  # signal fires at t=10, we start waiting at t=50
        yield sig
        got.append(engine.now)

    engine.spawn(late_waiter())
    engine.after(10, sig.fire)
    engine.after(80, sig.fire)
    engine.run()
    assert got == [80]


def test_anyof_returns_first_completion():
    engine = Engine()
    sig = Signal()
    got = []

    def body():
        index, value = yield AnyOf([sig, Timeout(100)])
        got.append((engine.now, index, value))

    engine.spawn(body())
    engine.after(30, sig.fire, "fast")
    engine.run()
    assert got == [(30, 0, "fast")]
    # the losing timeout must not leave a stray wakeup
    assert engine.pending_events == 0


def test_anyof_timeout_wins():
    engine = Engine()
    sig = Signal()
    got = []

    def body():
        index, _ = yield AnyOf([sig, Timeout(100)])
        got.append((engine.now, index))

    engine.spawn(body())
    engine.run()
    assert got == [(100, 1)]


def test_allof_waits_for_everything():
    engine = Engine()
    got = []

    def body():
        values = yield AllOf([Timeout(10), Timeout(30), Timeout(20)])
        got.append((engine.now, values))

    engine.spawn(body())
    engine.run()
    assert got == [(30, [None, None, None])]


def test_kill_stops_process():
    engine = Engine()
    got = []

    def body():
        yield 10
        got.append("should not happen")

    proc = engine.spawn(body())
    engine.after(5, proc.kill)
    engine.run()
    assert got == []
    assert not proc.alive


def test_killed_waiter_does_not_consume_signal():
    engine = Engine()
    sig = Signal()
    got = []

    def victim():
        yield sig
        got.append("victim")

    def survivor():
        yield sig
        got.append("survivor")

    victim_proc = engine.spawn(victim())
    engine.spawn(survivor())
    engine.after(5, victim_proc.kill)
    engine.after(10, sig.fire)
    engine.run()
    assert got == ["survivor"]


def test_process_exception_propagates_and_marks_error():
    engine = Engine()

    def body():
        yield 1
        raise ValueError("boom")

    proc = engine.spawn(body())
    with pytest.raises(ValueError):
        engine.run()
    assert isinstance(proc.error, ValueError)
    assert not proc.alive


def test_yielding_garbage_raises_simulation_error():
    engine = Engine()

    def body():
        yield "not a waitable"

    engine.spawn(body())
    with pytest.raises(SimulationError):
        engine.run()


def test_spawn_order_decides_same_time_interleaving():
    engine = Engine()
    seen = []

    def body(tag):
        seen.append(tag)
        yield 0
        seen.append(tag * 10)

    engine.spawn(body(1))
    engine.spawn(body(2))
    engine.run()
    assert seen == [1, 2, 10, 20]


def test_nested_subgenerators_via_yield_from():
    engine = Engine()
    got = []

    def inner():
        yield 10
        return 5

    def outer():
        value = yield from inner()
        got.append((engine.now, value))

    engine.spawn(outer())
    engine.run()
    assert got == [(10, 5)]


def test_a_finished_process_is_not_kept_alive_by_its_engine():
    """Nothing in the engine holds a spawned process once it has
    finished, so a run that spawns one per call (E07's clients) frees
    them as they end. The process's generator is referenced by the
    process alone."""
    def body():
        yield 5

    engine = Engine()
    generator = body()
    process = engine.spawn(generator)
    engine.run()
    assert not process.alive
    dead = weakref.ref(generator)
    del generator, process
    gc.collect()
    assert dead() is None
    assert engine.now == 5
