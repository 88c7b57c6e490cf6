"""Hardware threads (ptids) and their three-state machine.

Paper, Section 3: "At any point, a given ptid can be in one of three
states: runnable, waiting, or disabled. Runnable ptids can execute
instructions on the CPU core. ... A ptid can voluntarily enter the
waiting state through ... monitor/mwait ... a disabled ptid does not
execute instructions until it is restarted by another ptid."
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.arch.state import ArchState
from repro.errors import SimulationError
from repro.obs.timeline import ThreadState


class PtidState(enum.Enum):
    """The paper's three thread states."""

    RUNNABLE = "runnable"
    WAITING = "waiting"
    DISABLED = "disabled"


class HardwareThread:
    """One register-file-resident execution context.

    Fields beyond the architectural state record simulation bookkeeping:
    which program the ptid runs, where its context currently lives in
    the storage hierarchy, its issue priority, and statistics.
    """

    def __init__(self, ptid: int, core: Any, supervisor: bool = False):
        self.ptid = ptid
        self.core = core
        self.state = PtidState.DISABLED
        self.arch = ArchState(supervisor=supervisor)
        self.program: Optional[Any] = None  # isa.Program
        self.priority: int = 1
        self.key: Optional[int] = None  # secret-key security model
        self.finished = False           # halted (vs merely stopped)
        # timing bookkeeping used by the core's issue loop
        self.busy_until: int = 0      # also delays first issue after a start
        self.work_remaining: int = 0  # cycles left of a `work` instruction
        self.last_issue_time: int = 0
        # pre-decoded execution (repro.isa.decode): the program's
        # handler chain (None until a program is loaded) and the undo
        # record of an in-flight fused superinstruction
        self._decoded = None
        self._fused = None
        #: identity string stamped on this thread's memory traffic
        self.mem_source = f"cpu:core{getattr(core, 'core_id', 0)}.ptid{ptid}"
        # statistics
        self.instructions_executed = 0
        self.cycles_busy = 0
        self.wakeups = 0
        self.starts = 0
        self.stops = 0
        self.exceptions_raised = 0

    # ------------------------------------------------------------------
    # state transitions (invoked by the core; guard invariants here).
    # These three are the only writers of `state`, which makes them the
    # natural chokepoint for the observability timeline: when the core
    # carries one (instrumented machines only; bare test cores may have
    # core=None), every transition opens a span stamped with engine.now.
    # ------------------------------------------------------------------
    def make_runnable(self, reason: str = "") -> None:
        if self.state is PtidState.RUNNABLE:
            return
        if self.finished and reason != "restart":
            raise SimulationError(
                f"ptid {self.ptid} halted; restart it explicitly")
        self.state = PtidState.RUNNABLE
        self._note_transition(ThreadState.RUNNING)

    def make_waiting(self) -> None:
        if self.state is not PtidState.RUNNABLE:
            raise SimulationError(
                f"ptid {self.ptid} cannot wait from state {self.state}")
        self.state = PtidState.WAITING
        self._note_transition(ThreadState.MWAIT)

    def make_disabled(self) -> None:
        self.state = PtidState.DISABLED
        self._note_transition(ThreadState.STOPPED)

    def _note_transition(self, state: ThreadState) -> None:
        core = self.core
        if core is not None:
            # these three methods are the only writers of `state`, so
            # this is also where the core's cached runnable list (an
            # issue-loop fast path) gets invalidated
            core._runnable_cache = None
            if core.timeline is not None:
                core.timeline.transition(core.core_id, self.ptid, state,
                                         core.engine.now)

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        return self.state is PtidState.RUNNABLE

    @property
    def supervisor(self) -> bool:
        return self.arch.supervisor

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ptid {self.ptid} {self.state.value} pc={self.arch.pc}"
                f" prio={self.priority}>")
