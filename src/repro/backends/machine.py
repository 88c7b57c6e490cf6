"""The ISA-level server backend: requests run as real guest threads.

Where the ``"model"`` backend charges the paper's transition costs
analytically, this backend *executes* them: each admitted request runs
as straight-line blocking code (the Section 2 style -- compute, issue
the remote call, ``monitor``/``mwait`` on the reply slot, compute,
finish) on a hardware thread of a :class:`~repro.machine.Machine`
built on the cluster's shared engine. Wakeup costs, issue-slot sharing,
and storage-tier start latencies come out of the simulated core itself.

A request's arguments travel as data, the way the paper hands a
disabled ptid its registers before ``start``: every segment is
``work r6``, the backend writes the first segment's length into the
ptid's r6 before booting it, and the remote peer writes each next
length there just before its reply store. So one program per request
shape and slot is assembled and decoded once per process, and loading
a request builds nothing.

Per design:

- **hw-threads** -- thread-per-request: every request gets its own
  ptid; RTT gaps block on monitor/mwait and the hardware charges the
  real wakeup cost (``monitor_wakeup_cycles`` + storage start latency).
  No analytic overhead is added -- the machine *is* the cost model.
- **sw-threads** -- same thread-per-request program, but each segment
  carries the software transition tax
  (:meth:`~repro.distributed.rpc.ServerDesign.transition_overhead_cycles`
  at the crowding level observed at submit) as extra ``work`` cycles:
  the scheduler walk and cache refill are CPU cycles the core really
  burns. (The behavioral model re-reads the crowd at each segment;
  freezing it at submit is indistinguishable at the loads E15 runs.)
- **event-loop** -- one worker ptid runs segments to completion from a
  FIFO continuation queue; each segment carries the 50-cycle dispatch
  as ``work``, and head-of-line blocking is physical: the worker cannot
  be reloaded until the running segment halts.

The core issues one instruction per cycle (``smt_width=1``) round-robin
over runnable ptids -- processor sharing, matching the behavioral PS
discipline at one-cycle granularity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.arch.state import ArchState
from repro.distributed.rpc import ServerDesign
from repro.errors import ConfigError, require_int
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.machine import Machine, MachineConfig
from repro.sim.engine import Engine

#: Hardware threads per node machine: the concurrent-request ceiling
#: for the thread-per-request designs (overflow queues in FIFO order).
DEFAULT_SLOTS = 32

#: Cycles between a request's DONE store and its slot being reloaded:
#: the ``halt`` after the store must retire before a new program can be
#: bound to the ptid. Deterministic and tiny next to any segment.
_SLOT_DRAIN_CYCLES = 2


#: The register a request's segment lengths travel in. The backend
#: writes the first length before ``boot`` and the peer writes each
#: next one just before its reply store, so every segment is this one
#: ``work`` and one program serves every request of its shape.
_WORK_REG = 6
_WORK = f"    work r{_WORK_REG}"

#: (shape, req, reply, done) -> program, assembled and decoded once and
#: shared across slots, backends and runs (shape 0 = the one-segment
#: event-loop continuation, n >= 1 = an n-segment thread-per-request
#: program). The slot's mailbox addresses are baked in as symbols; the
#: machine memory layout is deterministic, so the same (shape, bases)
#: tuple recurs across every backend and run and the cache hits
#: globally.
_PROGRAMS: Dict[tuple, Program] = {}


def _request_asm(nsegs: int) -> str:
    """Straight-line blocking code for one whole request."""
    lines = [_WORK]
    for index in range(1, nsegs):
        lines += [
            "    movi r1, REPLY",
            "    monitor r1",        # armed before the call: no
            "    movi r2, REQ",      # lost wakeup on a fast reply
            f"    movi r3, {index}",
            "    st r2, 0, r3",      # issue the remote call
            "    mwait",             # simple blocking semantics
            _WORK,               # the reply wrote this segment's length
        ]
    lines += [
        "    movi r4, DONE",
        "    movi r5, 1",
        "    st r4, 0, r5",
        "    halt",
    ]
    return "\n".join(lines)


def _segment_asm() -> str:
    """One run-to-completion event-loop callback."""
    return "\n".join([
        _WORK,
        "    movi r1, DONE",
        "    movi r2, 1",
        "    st r1, 0, r2",
        "    halt",
    ])


def _program(shape: int, slot: _Slot) -> Program:
    key = (shape, slot.req_base, slot.reply_base, slot.done_base)
    program = _PROGRAMS.get(key)
    if program is None:
        source = _segment_asm() if shape == 0 else _request_asm(shape)
        program = _PROGRAMS[key] = assemble(
            source, name=f"isa-backend.shape{shape}",
            symbols={"REQ": slot.req_base, "REPLY": slot.reply_base,
                     "DONE": slot.done_base})
    return program


@dataclass
class _Pending:
    """One request accepted by the backend."""

    request_id: int
    segments: List[int]         # per-segment work lengths, tax included
    rtt_cycles: int
    arrived: int
    on_done: Optional[Callable[[], None]]
    next_segment: int = 0       # event-loop continuation cursor


@dataclass
class _Slot:
    """One worker ptid with its request/reply/done mailboxes."""

    ptid: int
    arch: ArchState             # the ptid's architectural state
    req_base: int
    reply_base: int
    done_base: int
    current: Optional[_Pending] = field(default=None)


class MachineBackend:
    """Serve segmented requests on a full ISA-level machine."""

    def __init__(self, engine: Engine, design: ServerDesign,
                 costs: Optional[CostModel] = None,
                 resident_threads: Optional[int] = None,
                 coherence: Optional[str] = None):
        if resident_threads is not None:
            require_int("resident_threads", resident_threads, 0)
        self.engine = engine
        self.design = design
        self.costs = costs or CostModel()
        self.resident_threads = resident_threads
        self.recorder = LatencyRecorder(f"{design.name}.isa.latency")
        self.completed = 0
        self.active = 0
        self.peak_concurrency = 0
        #: distributed-tracing sink (a SpanStore); set by the cluster
        #: node when request tracing is active, else stays None
        self.span_sink = None
        # the event loop is single-threaded by definition
        slots = 1 if design.name == "event-loop" else DEFAULT_SLOTS
        self.machine = Machine(
            MachineConfig(cores=1, hw_threads_per_core=slots, smt_width=1,
                          costs=self.costs, coherence=coherence),
            engine=engine)
        # Slots materialize on first use (mailbox allocation + watch
        # subscriptions are the bulk of construction, and a lightly
        # loaded node touches a handful of its 32 slots). The FIFO free
        # deque hands out ptids in ascending order, so the on-demand
        # allocation stream -- and with it every region base address --
        # is identical to eager construction.
        self._slot_budget = slots
        self._slots: List[_Slot] = []
        self._free: Deque[_Slot] = deque()
        #: overflow requests (thread-per-request) or continuations
        #: (event-loop), both strictly FIFO
        self._backlog: Deque[_Pending] = deque()

    def _grow_slot(self) -> _Slot:
        ptid = len(self._slots)
        slot = _Slot(
            ptid=ptid,
            arch=self.machine.thread(ptid).arch,
            req_base=self.machine.alloc(f"req{ptid}", 64).base,
            reply_base=self.machine.alloc(f"reply{ptid}", 64).base,
            done_base=self.machine.alloc(f"done{ptid}", 64).base)
        self._slots.append(slot)
        bus = self.machine.memory.watch_bus
        if self.design.name != "event-loop":
            bus.subscribe(slot.req_base, self._make_peer(slot),
                          owner=f"net-peer{ptid}")
        bus.subscribe(slot.done_base, self._make_done(slot),
                      owner=f"completion{ptid}")
        return slot

    # ------------------------------------------------------------------
    def submit(self, request_id: int, segment_cycles: List[float],
               rtt_cycles: int,
               on_done: Optional[Callable[[], None]] = None) -> None:
        """A request arrives now (the ServerBackend contract)."""
        if not segment_cycles:
            raise ConfigError("request needs at least one segment")
        self.active += 1
        self.peak_concurrency = max(self.peak_concurrency, self.active)
        work = self._work_cycles(segment_cycles)
        pending = _Pending(
            request_id=request_id,
            segments=work,
            rtt_cycles=max(1, rtt_cycles),
            arrived=self.engine.now,
            on_done=on_done)
        if self.span_sink is not None:
            # everything known analytically at submit: the per-segment
            # tax folded into the work lengths and the remote-call
            # RTT lower bound between segments. What the machine itself
            # charges on top (wakeups, dispatch, slot drain, issue-slot
            # sharing) lands in the trace's queue residual.
            nsegs = len(work)
            tax = self._segment_tax() * nsegs
            self.span_sink.node_demand(
                request_id, sum(work) - tax, tax,
                max(1, rtt_cycles) * (nsegs - 1))
        self._backlog.append(pending)
        self._dispatch()

    def cpu_busy_cycles(self) -> int:
        """Cycles the core's threads actually executed for."""
        return int(sum(t.cycles_busy
                       for t in self.machine.core(0).threads))

    # ------------------------------------------------------------------
    def _segment_tax(self) -> int:
        """The analytic per-segment tax at the crowding level observed
        now (0 for hw-threads: the machine charges its own wakeups)."""
        if self.design.name == "hw-threads":
            return 0
        crowd = 0
        if self.resident_threads is not None:
            crowd = self.resident_threads + max(self.active - 1, 0)
        return self.design.transition_overhead_cycles(self.costs,
                                                      crowd=crowd)

    def _work_cycles(self, segment_cycles: List[float]) -> List[int]:
        """Per-segment ``work`` lengths: demand plus any analytic tax.

        hw-threads adds nothing -- the machine charges its own wakeups.
        """
        tax = self._segment_tax()
        return [max(1, int(round(seg))) + tax for seg in segment_cycles]

    def _dispatch(self) -> None:
        while self._backlog:
            # fresh slots first, recycled ones after -- the same order
            # the eager free deque (0..N-1, completions appended behind)
            # used to hand out, so slot/mailbox assignment is unchanged
            if len(self._slots) < self._slot_budget:
                slot = self._grow_slot()
            elif self._free:
                slot = self._free.popleft()
            else:
                return
            slot.current = self._backlog.popleft()
            self._load_slot(slot)

    def _load_slot(self, slot: _Slot) -> None:
        pending = slot.current
        if self.design.name == "event-loop":
            # every continuation is the same one-segment shape: key 0
            shape, first = 0, pending.next_segment
        else:
            shape, first = len(pending.segments), 0
        slot.arch.gprs[_WORK_REG] = pending.segments[first]
        self.machine.load_program(slot.ptid, _program(shape, slot),
                                  supervisor=False)
        self.machine.boot(slot.ptid)

    # ------------------------------------------------------------------
    def _make_peer(self, slot: _Slot):
        """The remote side of the mid-request call: replies after RTT.
        The thread stores the index of the segment it waits for."""
        def on_request(info: dict) -> None:
            pending = slot.current
            if pending is None:     # stale store; cannot happen, but safe
                return
            self.engine.after(pending.rtt_cycles, self._reply, slot,
                              pending, info["value"])
        return on_request

    def _reply(self, slot: _Slot, pending: _Pending, index: int) -> None:
        # the reply hands over the next segment's length with its store
        slot.arch.gprs[_WORK_REG] = pending.segments[index]
        self.machine.memory.store(slot.reply_base, pending.request_id,
                                  "dma:net")

    def _make_done(self, slot: _Slot):
        def on_done(_info: dict) -> None:
            # the halt after this store must retire before the slot can
            # host another program
            self.engine.after(_SLOT_DRAIN_CYCLES, self._drained, slot)
        return on_done

    def _drained(self, slot: _Slot) -> None:
        pending = slot.current
        slot.current = None
        self._free.append(slot)
        if self.design.name == "event-loop":
            pending.next_segment += 1
            if pending.next_segment < len(pending.segments):
                # the remote call between segments: re-enter the FIFO
                # once the reply returns
                self.engine.after(pending.rtt_cycles,
                                  self._continue, pending)
            else:
                self._complete(pending)
        else:
            self._complete(pending)
        self._dispatch()

    def _continue(self, pending: _Pending) -> None:
        self._backlog.append(pending)
        self._dispatch()

    def _complete(self, pending: _Pending) -> None:
        self.active -= 1
        self.completed += 1
        self.recorder.record(self.engine.now - pending.arrived)
        if pending.on_done is not None:
            pending.on_done()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MachineBackend {self.design.name} active={self.active}"
                f" completed={self.completed}>")
