"""Generator-coroutine processes on top of the event engine.

A process body is a generator that yields *waitables*:

- ``Timeout(delay)`` (or a bare non-negative ``int``) -- resume after
  ``delay`` cycles; the yield evaluates to ``None``.
- ``Signal`` -- resume when the signal fires; the yield evaluates to the
  value passed to :meth:`Signal.fire`.
- another ``Process`` -- join; the yield evaluates to its result.
- ``AnyOf([w1, w2, ...])`` -- resume when the first waitable completes;
  evaluates to ``(index, value)``.
- ``AllOf([w1, w2, ...])`` -- resume when all complete; evaluates to the
  list of values.

Example::

    def worker(engine, sig):
        yield 10                  # compute for 10 cycles
        value = yield sig         # block until someone fires sig
        return value * 2

Processes terminate by returning (``StopIteration``); the return value is
exposed as :attr:`Process.result` and delivered to joiners.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError


class Timeout:
    """Waitable delay of a fixed number of cycles."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = int(delay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(value)`` resumes every current waiter with ``value``. Waiters
    that arrive after a fire block until the *next* fire (edge-triggered,
    like a condition variable -- matching the semantics of a hardware
    write-notification, not a latched flag).
    """

    __slots__ = ("name", "_waiters", "fire_count", "last_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_value: Any = None

    def add_waiter(self, callback: Callable[[Any], None]) -> Callable[[], None]:
        """Register a resume callback; returns a detach function."""
        self._waiters.append(callback)

        def detach() -> None:
            try:
                self._waiters.remove(callback)
            except ValueError:
                pass

        return detach

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters. Returns the number woken."""
        self.fire_count += 1
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name or id(self):#x} waiters={len(self._waiters)}>"


class AnyOf:
    """Waitable combinator: first of several waitables."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimulationError("AnyOf requires at least one waitable")


class AllOf:
    """Waitable combinator: all of several waitables."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimulationError("AllOf requires at least one waitable")


class Process:
    """A running generator coroutine.

    Never instantiate directly -- use :meth:`Engine.spawn`.
    """

    __slots__ = ("engine", "generator", "name", "alive", "result", "error",
                 "step_ints", "_joiners", "_pending_detach", "_interrupted")

    def __init__(self, engine: Any, generator: Any, name: Optional[str] = None):
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: route this process's timeouts to the engine's step lane --
        #: set by HWCore on its issue loop, whose per-cycle resumes must
        #: not cap other cores' fast-forward horizons (engine.at_step)
        self.step_ints = False
        self._joiners: List[Callable[[Any], None]] = []
        self._pending_detach: List[Callable[[], None]] = []
        self._interrupted = False
        # Kick off on the next event boundary at the current time so that
        # spawn order, not construction nesting, decides interleaving.
        engine.at(engine.now, self._resume, None)

    # ------------------------------------------------------------------
    def join(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(result)`` when the process finishes."""
        if self.alive:
            self._joiners.append(callback)
        else:
            callback(self.result)

    def kill(self) -> None:
        """Terminate the process at its current yield point."""
        if not self.alive:
            return
        for detach in self._pending_detach:
            detach()
        self._pending_detach.clear()
        self.alive = False
        self.generator.close()
        self._finish()

    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            waitable = self.generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._finish()
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to joiners
            self.alive = False
            self.error = exc
            self._finish()
            raise
        self._block_on(waitable)

    def _block_on(self, waitable: Any) -> None:
        self._pending_detach.clear()
        if type(waitable) is int:
            # bare-int timeout: the dominant yield by far (every issue
            # round and service slice), worth skipping the Timeout
            # wrapper and the `after` indirection
            if waitable < 0:
                raise SimulationError(f"negative timeout {waitable}")
            engine = self.engine
            if self.step_ints:
                engine.at_step(engine._now + waitable, self._resume, None)
            else:
                engine.at(engine._now + waitable, self._resume, None)
            return
        if isinstance(waitable, int):
            waitable = Timeout(waitable)
        if isinstance(waitable, Timeout):
            if self.step_ints:
                self.engine.after_step(waitable.delay, self._resume, None)
            else:
                self.engine.after(waitable.delay, self._resume, None)
        elif isinstance(waitable, Signal):
            detach = waitable.add_waiter(self._resume)
            self._pending_detach.append(detach)
        elif isinstance(waitable, Process):
            waitable.join(self._resume)
        elif isinstance(waitable, AnyOf):
            self._block_any(waitable)
        elif isinstance(waitable, AllOf):
            self._block_all(waitable)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported waitable {waitable!r}"
            )

    def _block_any(self, anyof: AnyOf) -> None:
        done = {"fired": False}

        def make_cb(index: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if done["fired"]:
                    return
                done["fired"] = True
                for detach in self._pending_detach:
                    detach()
                self._pending_detach.clear()
                self._resume((index, value))

            return cb

        for i, w in enumerate(anyof.waitables):
            self._attach(w, make_cb(i))

    def _block_all(self, allof: AllOf) -> None:
        remaining = {"n": len(allof.waitables)}
        values: List[Any] = [None] * len(allof.waitables)

        def make_cb(index: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                values[index] = value
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    self._pending_detach.clear()
                    self._resume(values)

            return cb

        for i, w in enumerate(allof.waitables):
            self._attach(w, make_cb(i))

    def _attach(self, waitable: Any, callback: Callable[[Any], None]) -> None:
        if isinstance(waitable, int):
            waitable = Timeout(waitable)
        if isinstance(waitable, Timeout):
            engine = self.engine
            after = engine.after_step if self.step_ints else engine.after
            event = after(waitable.delay, callback, None)
            self._pending_detach.append(partial(engine.cancel, event))
        elif isinstance(waitable, Signal):
            self._pending_detach.append(waitable.add_waiter(callback))
        elif isinstance(waitable, Process):
            waitable.join(callback)
        else:
            raise SimulationError(f"unsupported waitable in combinator: {waitable!r}")

    def _finish(self) -> None:
        joiners, self._joiners = self._joiners, []
        for callback in joiners:
            callback(self.result)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
