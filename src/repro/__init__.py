"""repro: behavioral reproduction of *A Case Against (Most) Context Switches*.

The package implements the HotOS '21 proposal by Humphries, Kaffes,
Mazières, and Kozyrakis as a pure-Python behavioral simulator:

- :mod:`repro.sim` -- the discrete-event engine everything runs on.
- :mod:`repro.arch` -- architectural state, register footprints, cost model.
- :mod:`repro.isa` -- a small base ISA plus the paper's seven proposed
  instructions (``monitor``/``mwait``, ``start``/``stop``, ``rpull``/
  ``rpush``, ``invtid``).
- :mod:`repro.hw` -- the hardware threading model: ptids, the thread
  descriptor table (TDT), SMT issue, the thread-state storage hierarchy.
- :mod:`repro.mem` -- memory, caches, the generalized write-watch bus, DMA.
- :mod:`repro.devices` -- NIC, APIC timer, SSD, MSI-X translation.
- :mod:`repro.kernel` -- the baseline context-switching kernel and the
  hardware-thread kernel built on the new model.
- :mod:`repro.hypervisor`, :mod:`repro.microkernel`,
  :mod:`repro.distributed` -- the paper's Section 2 use cases.
- :mod:`repro.workloads`, :mod:`repro.analysis`,
  :mod:`repro.experiments` -- evaluation harness (experiments E01-E18).

:class:`Machine`, :class:`MachineConfig` and :func:`build_machine`
import the ISA machine (:mod:`repro.machine`) on first use, so a
behavioral-model cluster run never loads it.

Quickstart::

    from repro import build_machine
    machine = build_machine(cores=1, hw_threads_per_core=64)

See ``examples/quickstart.py`` for a complete runnable tour.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__getattr__ = lazy_exports(
    globals(), machine=("Machine", "MachineConfig", "build_machine"))

__all__ = [
    "Machine",
    "MachineConfig",
    "build_machine",
    "__version__",
]
