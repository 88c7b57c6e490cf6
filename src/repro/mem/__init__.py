"""Simulated memory system.

The load-bearing piece is the :class:`~repro.mem.watch.WatchBus`: the
paper generalizes x86 ``monitor``/``mwait`` so that *any* write -- CPU
store, DMA from a device, or a translated legacy interrupt (MSI-X) --
to a watched address wakes the waiting hardware thread. Every mutation
of simulated memory therefore flows through :meth:`Memory.store`, which
notifies the bus; device models never poke memory behind its back.

- :mod:`repro.mem.memory` -- word-granular flat memory with a bump
  allocator and optional strict (page-fault) mode.
- :mod:`repro.mem.watch` -- the write-watch bus (line granularity).
- :mod:`repro.mem.cache` -- set-associative LRU cache hierarchy used for
  context-switch pollution modeling.
- :mod:`repro.mem.dma` -- DMA engine with bandwidth/latency modeling.
- :mod:`repro.mem.mmio` -- memory-mapped device registers (doorbells).
- :mod:`repro.mem.tlb` -- the TLB, a cache of pages, for the
  translation half of wakeup thrashing.
"""

from repro.mem.cache import Cache, CacheHierarchy
from repro.mem.dma import DmaEngine
from repro.mem.memory import Memory, Region
from repro.mem.mmio import MmioRegion
from repro.mem.tlb import Tlb
from repro.mem.watch import Watch, WatchBus

__all__ = [
    "Cache",
    "CacheHierarchy",
    "DmaEngine",
    "Memory",
    "MmioRegion",
    "Region",
    "Tlb",
    "Watch",
    "WatchBus",
]
