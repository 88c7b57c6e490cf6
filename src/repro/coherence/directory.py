"""MSI-style directory coherence for the watch bus.

The seed models monitor/mwait over a *flat* bus: a write to a watched
line wakes every waiter in the same cycle and costs the writer nothing.
Real hardware keeps watched lines coherent through a directory -- a
waiter arming a monitor pulls the line into the Shared state and
registers in the line's sharer set; a write to a shared line must visit
the directory, invalidate every sharer, and forward the wakeup to each
of them in turn. Those messages are the price of "monitor any line from
anywhere" (Section 3.1), and they grow with the sharer count.

:class:`DirectoryModel` prices exactly that protocol:

- **arm** (``monitor``): allocate/extend the line's directory entry and
  join its sharer set -- ``dir_arm_cycles``, paid by the arming
  instruction;
- **write to a shared line** (``st``/``faa``/DMA): the writer pays
  ``dir_inval_base_cycles + dir_inval_per_sharer_cycles x sharers`` to
  invalidate the set, and each sharer's wakeup is *forwarded* rather
  than instantaneous -- sharer ``i`` (in arm order) sees the write
  after ``dir_forward_cycles + i x dir_inval_per_sharer_cycles +
  dir_disarm_cycles`` (invalidations serialize at the directory; the
  trailing term retires the consumed sharer entry);
- **explicit disarm** (``stop`` of a waiting ptid): the directory entry
  must be retired -- ``dir_disarm_cycles``, returned through
  :meth:`~repro.mem.watch.Watch.cancel` so the stopping instruction can
  charge it.

The model plugs into :class:`~repro.mem.watch.WatchBus` via its
``coherence`` attribute (see :meth:`WatchBus.notify`); with the hook
left at ``None`` -- the default everywhere -- the bus byte-identically
reproduces the seed's flat behavior. A model built from a
:class:`~repro.arch.costs.CostModel` whose ``dir_*`` fields are all
zero takes the coherent code path but degenerates to synchronous
delivery; the tests byte-compare that against the default.

Lines with no sharers are not tracked: the entry is deallocated when
the last sharer leaves (back to I/M from the directory's point of
view), so ordinary stores stay on the fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.arch.costs import CostModel

#: Registered model names (``MachineConfig.coherence``): ``"directory"``
#: prices the protocol with the CostModel's ``dir_*`` fields.
MODEL_NAMES = ("directory",)


class DirectoryModel:
    """Per-line sharer sets with invalidation/forward pricing."""

    def __init__(self, costs: Optional[CostModel] = None,
                 engine: Optional[Any] = None):
        costs = costs or CostModel()
        self.engine = engine
        self.arm_cycles = costs.dir_arm_cycles
        self.disarm_cycles = costs.dir_disarm_cycles
        self.inval_base_cycles = costs.dir_inval_base_cycles
        self.inval_per_sharer_cycles = costs.dir_inval_per_sharer_cycles
        self.forward_cycles = costs.dir_forward_cycles
        # line -> insertion-ordered sharer set (the watches in S state)
        self._sharers: Dict[int, Dict[Any, None]] = {}
        # stats (harvested into coherence.directory{N}.* metrics)
        self.arms = 0
        self.disarms = 0
        self.writes_shared = 0
        self.writes_untracked = 0
        self.invalidations = 0
        self.forwards = 0
        self.writer_cycles = 0
        self.arm_cycles_total = 0
        self.disarm_cycles_total = 0
        self.forward_cycles_total = 0
        #: writer-side cost of the most recent write through the bus --
        #: the issuing store instruction reads this (see
        #: repro.isa.decode._make_st)
        self.last_write_cycles = 0

    # ------------------------------------------------------------------
    # protocol events (called by the WatchBus / Watch)
    # ------------------------------------------------------------------
    def on_arm(self, line: int, watch: Any) -> int:
        """A watch joins ``line``'s sharer set; returns the arm cost."""
        self._sharers.setdefault(line, {})[watch] = None
        self.arms += 1
        self.arm_cycles_total += self.arm_cycles
        return self.arm_cycles

    def on_disarm(self, line: int, watch: Any) -> int:
        """A watch leaves the sharer set; returns the retire cost."""
        entry = self._sharers.get(line)
        if entry is not None:
            entry.pop(watch, None)
            if not entry:
                del self._sharers[line]     # back to I: entry deallocated
        self.disarms += 1
        self.disarm_cycles_total += self.disarm_cycles
        return self.disarm_cycles

    def on_write(self, bus: Any, line: int, addr: int, value: int,
                 source: str) -> int:
        """A write reached ``line``: price it and deliver the wakeups.

        Returns the number of forwards initiated (the coherent analogue
        of the flat bus's fired-watch count).
        """
        entry = self._sharers.get(line)
        if not entry:
            self.writes_untracked += 1
            self.last_write_cycles = 0
            return 0
        sharers = len(entry)
        self.writes_shared += 1
        self.invalidations += sharers
        cost = (self.inval_base_cycles
                + self.inval_per_sharer_cycles * sharers)
        self.last_write_cycles = cost
        self.writer_cycles += cost
        fired = 0
        # copy: forwarding may cancel/re-arm watches (same discipline as
        # the flat bus)
        for index, watch in enumerate(list(entry)):
            if not watch.armed:
                continue
            delay = self.wakeup_delay(index)
            self.forwards += 1
            self.forward_cycles_total += delay
            if delay and self.engine is not None:
                self.engine.after(delay, self._deliver, bus, watch,
                                  addr, value, source)
            else:
                self._deliver(bus, watch, addr, value, source)
            fired += 1
        return fired

    def wakeup_delay(self, index: int) -> int:
        """Forward latency for the ``index``-th sharer of a written line:
        serialized invalidations, the forward hop, and retiring the
        consumed sharer entry."""
        return (self.forward_cycles
                + index * self.inval_per_sharer_cycles
                + self.disarm_cycles)

    def _deliver(self, bus: Any, watch: Any, addr: int, value: int,
                 source: str) -> None:
        # re-check: the watch may have been cancelled while the forward
        # was in flight (a stopped ptid must not wake)
        if watch.armed:
            bus.total_triggers += 1
            watch._trigger(addr, value, source)

    # ------------------------------------------------------------------
    def sharer_count(self, line: int) -> int:
        """Armed sharers the directory tracks for ``line``."""
        return len(self._sharers.get(line, ()))

    def lines_tracked(self) -> int:
        return len(self._sharers)

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.arms", self.arms)
        registry.inc(f"{prefix}.disarms", self.disarms)
        registry.inc(f"{prefix}.writes_shared", self.writes_shared)
        registry.inc(f"{prefix}.writes_untracked", self.writes_untracked)
        registry.inc(f"{prefix}.invalidations", self.invalidations)
        registry.inc(f"{prefix}.forwards", self.forwards)
        registry.inc(f"{prefix}.writer_cycles", self.writer_cycles)
        registry.inc(f"{prefix}.arm_cycles", self.arm_cycles_total)
        registry.inc(f"{prefix}.disarm_cycles", self.disarm_cycles_total)
        registry.inc(f"{prefix}.forward_cycles", self.forward_cycles_total)
        registry.set(f"{prefix}.lines_tracked", self.lines_tracked())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DirectoryModel lines={self.lines_tracked()}"
                f" arms={self.arms} invals={self.invalidations}>")
