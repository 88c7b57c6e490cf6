"""VM-exit cost models and the guest that drives them.

Three ways to leave a virtual machine:

- :class:`InThreadExitPath` -- the hardware VMX transition: save/restore
  guest state within the same hardware thread ("hundreds of
  nanoseconds", Agesen et al. [20]). The guest is frozen for the whole
  round trip.
- :class:`SplitXExitPath` -- SplitX [53]: ship the exit to a hypervisor
  core over shared memory. No VMX transition, but cross-core
  communication plus queueing at the hypervisor core; the guest still
  blocks for synchronous exits.
- :class:`HwThreadExitPath` -- the proposal: the exit stops the guest
  ptid and starts the root-mode ptid on the same core; handling ends
  with a start of the guest ptid. Cost is two ptid starts plus a stop.

:class:`GuestVm` runs a fixed amount of guest work punctuated by exits
and reports the slowdown relative to exit-free execution -- the shape
E05 reproduces.
"""

from __future__ import annotations

import enum
import random
from typing import Optional

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.errors import ConfigError, require_int
from repro.kernel.sched import CallServer
from repro.sim.engine import Engine


class ExitReason(enum.Enum):
    """Why the guest exited (Section 2's examples)."""

    VMCALL = "vmcall"          # explicit hypercall
    WRMSR = "wrmsr"            # privileged instruction
    IO = "io"                  # device access
    EPT_FAULT = "ept-fault"    # nested page fault
    EXTERNAL = "external"      # interrupt delivered to root mode


class InThreadExitPath:
    """Baseline: VMX root-mode transition in the same hardware thread."""

    name = "in-thread"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None):
        self.engine = engine
        self.costs = costs or CostModel()
        self.exits = 0

    def overhead_cycles(self) -> int:
        """Per-exit overhead excluding handler work (exit + resume)."""
        return self.costs.vm_exit_cycles

    def exit(self, reason: ExitReason, handler_work_cycles: int):
        """Sub-generator: one synchronous exit (guest blocked)."""
        self.exits += 1
        yield self.overhead_cycles() + max(1, handler_work_cycles)


class SplitXExitPath:
    """SplitX: exits shipped to a dedicated hypervisor core.

    The guest writes an exit record into shared memory (cheap), the
    hypervisor core picks it up, handles it, and writes the reply. Per
    exit the guest pays two one-way communication delays plus queueing
    at the single hypervisor core -- fine until the hypervisor core
    saturates, which is SplitX's scaling limit (it also permanently
    consumes that core).
    """

    name = "splitx"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 comm_cycles: int = 200):
        require_int("comm_cycles", comm_cycles, 1)
        self.engine = engine
        self.costs = costs or CostModel()
        self.comm_cycles = comm_cycles
        self.exits = 0
        self._core = CallServer(engine, "splitx.hvcore")

    @property
    def hv_core_busy_cycles(self) -> int:
        """Cycles the hypervisor core spent handling exits."""
        return self._core.busy_cycles

    def overhead_cycles(self) -> int:
        """Per-exit overhead excluding handler work and queueing."""
        return 2 * self.comm_cycles

    def exit(self, reason: ExitReason, handler_work_cycles: int):
        """Sub-generator: ship the exit and wait for the reply."""
        self.exits += 1
        yield self.comm_cycles  # request cacheline travels to the hv core
        yield self._core.submit(handler_work_cycles)
        yield self.comm_cycles  # reply travels back


class HwThreadExitPath:
    """Proposed: stop the guest ptid, start the root-mode ptid.

    "VM-exits would stop the virtual machine's hardware thread and
    start the hypervisor's hardware thread." Completion restarts the
    guest ptid, so the round trip is stop + start + work + start.
    """

    name = "hw-thread"

    def __init__(self, engine: Engine, costs: Optional[CostModel] = None,
                 tier: str = "rf"):
        if tier not in ("rf", "l2", "l3"):
            raise ConfigError(f"unknown storage tier {tier!r}")
        self.engine = engine
        self.costs = costs or CostModel()
        self.tier = tier
        self.exits = 0

    def overhead_cycles(self) -> int:
        start = self.costs.hw_start_cycles(self.tier)
        return self.costs.hw_stop_cycles + 2 * start

    def exit(self, reason: ExitReason, handler_work_cycles: int):
        """Sub-generator: one exit via ptid stop/start."""
        self.exits += 1
        yield self.overhead_cycles() + max(1, handler_work_cycles)


class GuestVm:
    """A guest that computes and exits, for measuring slowdown.

    Executes ``total_work_cycles`` of guest compute; every
    ``exit_interval_cycles`` (exponentially distributed around that
    mean when ``rng`` is given) it takes an exit with
    ``handler_work_cycles`` of hypervisor work. The run reports the
    per-exit latency distribution and the slowdown factor
    ``wall_clock / total_work``.
    """

    def __init__(self, engine: Engine, path, total_work_cycles: int,
                 exit_interval_cycles: int, handler_work_cycles: int = 400,
                 reason: ExitReason = ExitReason.VMCALL,
                 rng: Optional[random.Random] = None,
                 name: str = "guest"):
        require_int("total_work_cycles", total_work_cycles, 1)
        require_int("exit_interval_cycles", exit_interval_cycles, 1)
        self.engine = engine
        self.path = path
        self.total_work_cycles = total_work_cycles
        self.exit_interval_cycles = exit_interval_cycles
        self.handler_work_cycles = handler_work_cycles
        self.reason = reason
        self.rng = rng
        self.name = name
        self.exit_recorder = LatencyRecorder(f"{name}.exit")
        self.started_at = engine.now
        self.finished_at: Optional[int] = None
        self.process = engine.spawn(self._run(), name=name)

    def _next_interval(self) -> int:
        if self.rng is None:
            return self.exit_interval_cycles
        return max(1, int(self.rng.expovariate(1.0 / self.exit_interval_cycles)))

    def _run(self):
        remaining = self.total_work_cycles
        while remaining > 0:
            burst = min(remaining, self._next_interval())
            yield burst
            remaining -= burst
            if remaining <= 0:
                break
            exit_started = self.engine.now
            yield from self.path.exit(self.reason, self.handler_work_cycles)
            self.exit_recorder.record(self.engine.now - exit_started)
        self.finished_at = self.engine.now

    # ------------------------------------------------------------------
    def wall_cycles(self) -> int:
        if self.finished_at is None:
            raise ConfigError(f"guest {self.name} not finished")
        return self.finished_at - self.started_at

    def slowdown(self) -> float:
        """Wall clock / useful guest work (1.0 = no virtualization tax)."""
        return self.wall_cycles() / self.total_work_cycles
