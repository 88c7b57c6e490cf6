"""The write-watch bus: generalized monitor/mwait substrate.

Paper, Section 3.1: "these instructions monitor any write (including
DMA) to any address, may be used from any privilege level ... Unlike
x86, one can monitor uncachable addresses such as device memory or
memory-mapped I/O registers."

Watches are line-granular (default 64 B), like real MONITOR, so a write
to any byte of the watched line triggers the waiter -- the aliasing this
implies is intentional and covered by tests.

Coherence is pluggable: with :attr:`WatchBus.coherence` left at ``None``
(the default everywhere) the bus is the seed's flat, free broadcast --
byte-identical behavior. Attaching a
:class:`~repro.coherence.directory.DirectoryModel` routes arms, disarms,
and watched-line writes through an MSI-style directory that prices them
and forwards wakeups with per-sharer delays.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Set

from repro.sim.process import Signal

LINE_BYTES = 64


class Watch:
    """One armed monitor: a set of watched lines and a wakeup signal.

    A single watch may span several addresses (the paper: "A hardware
    thread can monitor multiple memory locations"); any write to any of
    them fires the signal once.
    """

    __slots__ = ("bus", "owner", "lines", "signal", "armed", "trigger_count",
                 "last_trigger")

    def __init__(self, bus: "WatchBus", owner: Any = None):
        self.bus = bus
        self.owner = owner
        self.lines: Set[int] = set()
        self.signal = Signal(f"watch:{owner}")
        self.armed = True
        self.trigger_count = 0
        self.last_trigger: Optional[Dict[str, Any]] = None

    def add_address(self, addr: int) -> int:
        """Watch the cache line containing ``addr``.

        Returns the directory arm cost in cycles (0 with no coherence
        model attached, or when the line was already watched).
        """
        line = addr // self.bus.line_bytes
        if line not in self.lines:
            self.lines.add(line)
            self.bus._line_watches[line][self] = None
            coherence = self.bus.coherence
            if coherence is not None:
                return coherence.on_arm(line, self)
        return 0

    def covers(self, addr: int) -> bool:
        return (addr // self.bus.line_bytes) in self.lines

    def cancel(self) -> int:
        """Disarm and deregister. Idempotent.

        Returns the directory disarm cost in cycles (0 with no
        coherence model attached).
        """
        if not self.armed:
            return 0
        self.armed = False
        coherence = self.bus.coherence
        cycles = 0
        for line in self.lines:
            watchers = self.bus._line_watches.get(line)
            if watchers is not None:
                watchers.pop(self, None)
            if coherence is not None:
                cycles += coherence.on_disarm(line, self)
        self.lines.clear()
        return cycles

    def _trigger(self, addr: int, value: int, source: str) -> None:
        self.trigger_count += 1
        self.last_trigger = {"addr": addr, "value": value, "source": source}
        self.signal.fire(self.last_trigger)


class Subscription:
    """A watch on one line that stays armed: ``callback(info)`` runs on
    every write to it (see :meth:`WatchBus.subscribe`).

    Each delivery moves the entry to the back of its line's wake order
    and, under a directory, out of and back into the line's sharer set
    -- where a one-shot watch cancelled and re-armed on each write
    would stand, at the same directory cost -- but nothing is built per
    write.
    """

    __slots__ = ("bus", "owner", "line", "callback", "armed")

    def __init__(self, bus: "WatchBus", line: int, callback,
                 owner: Any = None):
        self.bus = bus
        self.owner = owner
        self.line = line
        self.callback = callback
        self.armed = True
        bus._line_watches[line][self] = None
        if bus.coherence is not None:
            bus.coherence.on_arm(line, self)

    def cancel(self) -> None:
        """Disarm and deregister. Idempotent."""
        if self.armed:
            self.armed = False
            bus = self.bus
            bus._line_watches[self.line].pop(self, None)
            if bus.coherence is not None:
                bus.coherence.on_disarm(self.line, self)

    def _trigger(self, addr: int, value: int, source: str) -> None:
        line = self.line
        bus = self.bus
        watchers = bus._line_watches[line]
        del watchers[self]
        watchers[self] = None
        coherence = bus.coherence
        if coherence is not None:
            coherence.on_disarm(line, self)
            coherence.on_arm(line, self)
        self.callback({"addr": addr, "value": value, "source": source})


class WatchBus:
    """Routes every memory write to the watches covering its line."""

    def __init__(self, line_bytes: int = LINE_BYTES):
        self.line_bytes = line_bytes
        # line -> insertion-ordered set of watches and subscriptions. A
        # dict keyed by the entry gives O(1) cancel while keeping the
        # flat bus's exact arm-order iteration (a swap-remove list would
        # reorder wakeups and break byte-identity).
        self._line_watches: Dict[int, Dict[Any, None]] = defaultdict(dict)
        self.total_notifications = 0
        self.total_triggers = 0
        #: pluggable coherence model (None = flat free bus, the seed
        #: behavior; see repro.coherence.directory.DirectoryModel)
        self.coherence = None

    def watch(self, addresses, owner: Any = None) -> Watch:
        """Arm a watch over one address or an iterable of addresses."""
        watch = Watch(self, owner)
        if isinstance(addresses, int):
            addresses = [addresses]
        for addr in addresses:
            watch.add_address(addr)
        return watch

    def notify(self, addr: int, value: int, source: str = "cpu") -> int:
        """A write happened; trigger covering watches. Returns count.

        With a coherence model attached the count is the number of
        wakeup *forwards initiated* (delivery may be deferred by the
        directory's forward latency); the flat path fires synchronously.
        """
        self.total_notifications += 1
        line = addr // self.line_bytes
        coherence = self.coherence
        if coherence is not None:
            return coherence.on_write(self, line, addr, value, source)
        watchers = self._line_watches.get(line)
        if not watchers:
            return 0
        fired = 0
        # copy: triggering may cancel, arm or move watches
        for watch in list(watchers):
            if watch.armed:
                watch._trigger(addr, value, source)
                fired += 1
        self.total_triggers += fired
        return fired

    def subscribe(self, addr: int, callback, owner: Any = None):
        """Persistently invoke ``callback(info)`` on every write to the
        line holding ``addr``. Returns a zero-argument cancel function.

        Unlike a raw :class:`Watch` (whose signal waiters are one-shot,
        matching mwait semantics), a subscription stays armed: one
        :class:`Subscription` entry serves every write -- under a
        directory also one that lands while the forward of an earlier
        write is still in flight -- for device drivers, the ISA
        backend's mailboxes and experiment instrumentation.
        """
        return Subscription(self, addr // self.line_bytes, callback,
                            owner).cancel

    def watchers_on(self, addr: int) -> int:
        """How many armed watches cover ``addr`` (diagnostics)."""
        line = addr // self.line_bytes
        return sum(1 for w in self._line_watches.get(line, ()) if w.armed)

    def __repr__(self) -> str:  # pragma: no cover
        lines = sum(1 for ws in self._line_watches.values() if ws)
        return f"<WatchBus lines={lines} notes={self.total_notifications}>"
