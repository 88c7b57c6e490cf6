"""The proposed hardware threading model (Sections 3 and 4 of the paper).

- :mod:`repro.hw.ptid` -- the hardware-thread record and its three-state
  machine (runnable / waiting / disabled).
- :mod:`repro.hw.tdt` -- the Thread Descriptor Table: memory-resident
  vtid->ptid map with 4 permission bits and an explicit-invalidate cache.
- :mod:`repro.hw.exceptions` -- exception descriptors written to memory
  (exceptions-as-data replaces trap vectors).
- :mod:`repro.hw.monitor` -- the per-ptid monitor unit implementing
  generalized monitor/mwait over the write-watch bus.
- :mod:`repro.hw.storage` -- the thread-state storage hierarchy (register
  file / L2 / L3 tiers with promotion and eviction).
- :mod:`repro.hw.issue` -- the SMT issue arbiter (fine-grain
  round-robin, weighted by thread priority).
- :mod:`repro.hw.core` -- the core: interprets programs for many ptids,
  multiplexing them onto a few SMT slots.
- :mod:`repro.hw.chip` -- a multi-core chip sharing one memory system.
- :mod:`repro.hw.keys` -- the secret-key alternative to the TDT security
  model sketched in Section 3.2.
"""

from repro.hw.chip import Chip
from repro.hw.core import HWCore
from repro.hw.exceptions import ExceptionDescriptor, ExceptionKind
from repro.hw.issue import WeightedRoundRobinIssue
from repro.hw.keys import KeyRegistry
from repro.hw.monitor import MonitorUnit
from repro.hw.ptid import HardwareThread, PtidState
from repro.hw.storage import StorageTier, ThreadStateStore
from repro.hw.tdt import Permission, TdtEntry, ThreadDescriptorTable

__all__ = [
    "Chip",
    "ExceptionDescriptor",
    "ExceptionKind",
    "HWCore",
    "HardwareThread",
    "KeyRegistry",
    "MonitorUnit",
    "Permission",
    "PtidState",
    "StorageTier",
    "TdtEntry",
    "ThreadDescriptorTable",
    "ThreadStateStore",
    "WeightedRoundRobinIssue",
]
