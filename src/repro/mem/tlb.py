"""A TLB model, for the translation half of wakeup thrashing.

Section 4 consistently pairs the two stores of non-register state:
"Misses in caches and TLBs can lead to significant performance loss and
even thrashing as numerous hardware threads start and stop", and the
prefetch mitigation covers "caches of all types", translations
included ("the most critical instructions/data/translations").

The TLB is a :class:`~repro.mem.cache.Cache` whose lines are fixed-size
pages and whose miss cost is a fixed page-table walk, so it has the
caches' ``warm``/``pin``/``flush`` hooks and E13-style policies apply.
"""

from __future__ import annotations

from repro.errors import require_int
from repro.mem.cache import Cache

PAGE_BYTES = 4096


class Tlb(Cache):
    """Set-associative LRU TLB of ``entries`` pages."""

    def __init__(self, name: str = "dtlb", entries: int = 64, ways: int = 4,
                 page_bytes: int = PAGE_BYTES,
                 hit_cycles: int = 1, walk_cycles: int = 100):
        # named here: the cache below sees only their products and aliases
        for arg, value, least in (("entries", entries, 1),
                                  ("page_bytes", page_bytes, 1),
                                  ("walk_cycles", walk_cycles, 0)):
            require_int(f"{name!r} {arg}", value, least)
        super().__init__(name, entries * page_bytes, ways=ways,
                         line_bytes=page_bytes, hit_cycles=hit_cycles,
                         miss_cycles=walk_cycles)
        self.entries = entries

    #: translate ``addr``; returns cycles (hit, or hit plus walk)
    translate = Cache.access
    page_bytes = property(lambda self: self.line_bytes)
    walk_cycles = property(lambda self: self.miss_cycles)
