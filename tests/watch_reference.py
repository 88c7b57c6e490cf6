"""The re-arming subscription: the oracle for ``WatchBus.subscribe``.

``WatchBus.subscribe`` registers one persistent entry that fires on
every write to its line. Before that, a subscription was a chain of
one-shot :class:`~repro.mem.watch.Watch` objects: each delivery
cancelled the watch that fired and armed a new one, which put the
subscriber at the back of its line's wake order and, under a
directory, cost one disarm and one arm. :func:`rearming_subscribe`
keeps that version verbatim, and :func:`rearming_subscriptions`
patches it in, so that wake order, callback logs, directory counters
and whole experiments can be diffed against the persistent entry::

    with rearming_subscriptions():
        result = run_experiment("E17", quick=True)

One behaviour differs on purpose. Under a directory, a second write
whose forward is still in flight when the first is delivered reaches
the cancelled watch and is dropped here; the persistent entry delivers
it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.mem.watch import WatchBus


def rearming_subscribe(self, addr: int, callback, owner: Any = None):
    """Persistently invoke ``callback(info)`` on every write to the
    line holding ``addr``. Returns a zero-argument cancel function.

    Unlike a raw :class:`Watch` (whose signal waiters are one-shot,
    matching mwait semantics), a subscription re-arms itself --
    convenience for device drivers and experiment instrumentation.
    """
    state = {"active": True, "watch": None}

    def arm() -> None:
        watch = self.watch(addr, owner=owner)
        state["watch"] = watch

        def on_write(info: dict) -> None:
            watch.cancel()
            if not state["active"]:
                return
            arm()
            callback(info)

        watch.signal.add_waiter(on_write)

    def cancel() -> None:
        state["active"] = False
        if state["watch"] is not None:
            state["watch"].cancel()

    arm()
    return cancel


@contextmanager
def rearming_subscriptions():
    """Run the block with :func:`rearming_subscribe` as
    ``WatchBus.subscribe``."""
    saved = WatchBus.subscribe
    WatchBus.subscribe = rearming_subscribe
    try:
        yield
    finally:
        WatchBus.subscribe = saved
