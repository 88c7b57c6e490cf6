"""Behavioral kernel models: the baseline world and the proposed world.

The paper's argument is comparative -- interrupts vs mwait-wakeups,
in-thread syscalls vs dedicated-ptid syscalls, software-thread
multiplexing vs hardware threads. This package implements both sides of
each comparison with the *same* event streams and a shared
:class:`~repro.arch.costs.CostModel`, so every experiment is paired.

- :mod:`repro.kernel.threads` -- software threads and context-switch
  accounting (the thing the paper wants to eliminate).
- :mod:`repro.kernel.sched` -- single-server queueing disciplines:
  FIFO run-to-completion, round-robin with switch costs, and ideal
  processor sharing (the paper's fine-grain hardware RR). Its one serve
  loop, which charges only a wake, a dispatch and a time slice, also
  runs the I/O servers, the microkernel service thread and SplitX's
  hypervisor core.
- :mod:`repro.kernel.interrupts` -- IDT interrupt delivery vs
  monitor/mwait dispatch.
- :mod:`repro.kernel.io` -- the three I/O server designs of Section 2:
  interrupt-driven, polling, and mwait-based, which differ only in the
  wake they price.
- :mod:`repro.kernel.syscalls` -- synchronous, FlexSC-style
  asynchronous, and dedicated-hardware-thread system calls.

Only the schedulers load with the package (the behavioral RPC model
runs on them); every other name imports its module on first use.
"""

from repro._lazy import lazy_exports
from repro.kernel.sched import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)

__getattr__ = lazy_exports(
    globals(),
    interrupts=("HwThreadDispatch", "IdtInterruptPath"),
    io=("InterruptIoServer", "IoServerStats", "MwaitIoServer",
        "PollingIoServer"),
    syscalls=("FlexScPath", "HwThreadSyscallPath", "SyncSyscallPath",
              "SyscallRunner"),
    threads=("ContextSwitchAccounting", "SoftwareThread"))

__all__ = [
    "SoftwareThread",
    "ContextSwitchAccounting",
    "FifoServer",
    "RoundRobinServer",
    "ProcessorSharingServer",
    "IdtInterruptPath",
    "HwThreadDispatch",
    "InterruptIoServer",
    "PollingIoServer",
    "MwaitIoServer",
    "IoServerStats",
    "SyncSyscallPath",
    "FlexScPath",
    "HwThreadSyscallPath",
    "SyscallRunner",
]
