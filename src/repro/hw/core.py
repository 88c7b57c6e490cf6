"""The proposed CPU core: many ptids multiplexed onto a few SMT slots.

Execution model
---------------
The core is one simulation process. Each *issue round* it picks up to
``smt_width`` issueable ptids (runnable, not mid-instruction) via the
issue arbiter, executes one instruction for each, and advances one
cycle. A multi-cycle instruction makes its thread busy until the cost
elapses while other ptids keep issuing -- fine-grain interleaving, the
paper's "emulates processor sharing". When no ptid is runnable the core
blocks on a wake signal (there is no idle loop and no timer tick: the
whole point of the design).

Instructions execute through each program's pre-decoded handler chain
(:mod:`repro.isa.decode`). The decoder's makers define the hot opcodes;
the ``_op_*`` methods here define the cold ones (thread management,
CSRs, traps, ``fwork`` and the vector ops), each exactly once.

Thread management instructions resolve vtids through the caller's TDT
(its ``tdtr`` register names the memory-resident table) with a
TDT cache that only ``invtid`` invalidates. Supervisor-mode ptids with
``tdtr == 0`` address ptids directly -- the boot convention, before any
table exists.

Exceptions never unwind the simulator: they write a descriptor at the
faulting ptid's ``edp`` and disable it (see :mod:`repro.hw.exceptions`).
A fault in a ptid with ``edp == 0`` is the paper's triple-fault
analogue and halts the core.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.costs import CostModel
from repro.arch.registers import RegisterClass
from repro.errors import ConfigError, GuestFault, TripleFault
from repro.hw.exceptions import ExceptionDescriptor, ExceptionKind
from repro.hw.issue import WeightedRoundRobinIssue
from repro.hw.keys import KeyRegistry
from repro.hw.monitor import MonitorUnit
from repro.hw.ptid import HardwareThread, PtidState
from repro.hw.storage import ThreadStateStore
from repro.hw.tdt import Permission, TdtCache, TdtEntry
from repro.isa.instructions import Reg
from repro.isa.program import Program
from repro.mem.memory import Memory
from repro.sim.process import AnyOf, Signal

#: Register that carries the presented secret key in the key security model.
KEY_REGISTER = "r15"


class HWCore:
    """A physical core with ``num_ptids`` software-managed hardware threads."""

    def __init__(self, engine: Any, memory: Memory, core_id: int = 0,
                 num_ptids: int = 64, smt_width: int = 2,
                 costs: Optional[CostModel] = None,
                 storage: Optional[ThreadStateStore] = None,
                 security_model: str = "tdt",
                 tracer: Optional[Any] = None):
        if num_ptids < 1:
            raise ConfigError(f"core needs at least one ptid, got {num_ptids}")
        if smt_width < 1:
            raise ConfigError(f"smt_width must be >= 1, got {smt_width}")
        if security_model not in ("tdt", "keys"):
            raise ConfigError(f"unknown security model {security_model!r}")
        self.engine = engine
        self.memory = memory
        self.core_id = core_id
        self.smt_width = smt_width
        self.costs = costs or CostModel()
        self.arbiter = WeightedRoundRobinIssue()
        self.storage = storage or ThreadStateStore(self.costs)
        self.security_model = security_model
        self.tracer = tracer
        # observability (attach_obs): all None when uninstrumented
        self.timeline: Optional[Any] = None
        self.profile: Optional[Any] = None
        self.metrics: Optional[Any] = None
        self._wakeup_hist: Optional[Any] = None
        self.tdt_cache = TdtCache(self.costs)
        self.keys = KeyRegistry()
        self.threads: List[HardwareThread] = []
        for ptid in range(num_ptids):
            thread = HardwareThread(ptid, self)
            thread_monitor = MonitorUnit(memory.watch_bus, owner=(core_id, ptid))
            thread_monitor.on_wakeup = self._make_wakeup(thread)
            thread.monitor = thread_monitor  # type: ignore[attr-defined]
            self.threads.append(thread)
            self.storage.register(ptid)
        # a core whose tracer is on at construction runs unfused chains
        # and emits one `issue` record per instruction (see _decode)
        self._traced = bool(getattr(tracer, "enabled", False))
        #: ptid-ordered runnable threads, rebuilt lazily after any state
        #: transition (see HardwareThread._note_transition)
        self._runnable_cache: Optional[List[HardwareThread]] = None
        self.halted = False
        self.halt_reason: Optional[str] = None
        self._wake = Signal(f"core{core_id}-wake")
        self.issue_rounds = 0
        self.instructions_retired = 0
        self.idle_cycles = 0
        self.process = engine.spawn(self._run(), name=f"core{core_id}")
        # The issue loop's own per-cycle resumes go to the engine's step
        # lane so they never show up in next_foreign_event_time(): one
        # core grinding through `yield 1` rounds must not cap every
        # other core's fast-forward horizon at a single cycle.
        self.process.step_ints = True

    # ==================================================================
    # public API (used by Machine, kernels, and tests)
    # ==================================================================
    def thread(self, ptid: int) -> HardwareThread:
        if not 0 <= ptid < len(self.threads):
            raise ConfigError(f"ptid {ptid} out of range on core {self.core_id}")
        return self.threads[ptid]

    def load_program(self, ptid: int, program: Program, pc: int = 0,
                     supervisor: Optional[bool] = None,
                     edp: Optional[int] = None,
                     tdtr: Optional[int] = None) -> HardwareThread:
        """Bind a program to a ptid (setup-time; no cycle cost)."""
        thread = self.thread(ptid)
        thread.program = program
        thread.finished = False
        thread.arch.pc = pc
        thread._fused = None
        thread._decoded = self._decode(program)
        if supervisor is not None:
            thread.arch.priv = 1 if supervisor else 0
        if edp is not None:
            thread.arch.edp = edp
        if tdtr is not None:
            thread.arch.tdtr = tdtr
        return thread

    def _decode(self, program: Program):
        """The handler chain this core runs ``program`` with.

        Untraced cores share the chain cached on the program, fusion
        included. A traced core decodes a private chain with fusion
        blocked at every index, so each instruction issues -- and is
        traced -- on its own; ``Program._decoded_cache`` keeps the fused
        chain the untraced cores share.
        """
        if not self._traced:
            return program.decoded(HWCore._DISPATCH)
        from repro.isa.decode import decode_program
        return decode_program(program, HWCore._DISPATCH,
                              no_fuse=range(len(program)))

    def boot(self, ptid: int) -> None:
        """Make a ptid runnable at setup time, free of charge."""
        thread = self.thread(ptid)
        thread.finished = False
        thread.make_runnable()
        self.arbiter.note_enqueue(thread)
        self._wake.fire()

    def api_start(self, ptid: int, charge: bool = True) -> int:
        """Software-visible start from outside guest code (device driver
        or behavioral kernel). Returns the modeled start latency."""
        thread = self.thread(ptid)
        latency = 0
        if thread.state is PtidState.DISABLED:
            if charge:
                latency = self.storage.start_latency(ptid, self._idle_ptids())
                thread.busy_until = max(thread.busy_until,
                                        self.engine.now + latency)
            thread.finished = False
            thread.make_runnable(reason="restart")
            thread.starts += 1
            self.arbiter.note_enqueue(thread)
            self._wake.fire()
        return latency

    def api_stop(self, ptid: int) -> None:
        thread = self.thread(ptid)
        self._materialize_fused(thread)
        thread.monitor.cancel()
        thread.make_disabled()
        thread.stops += 1
        self.arbiter.forget(thread.ptid)
        # a stop shrinks the issueable pool: interrupt any in-flight
        # fast-forward batch so the loop re-plans against the new set
        self._wake.fire()

    def set_priority(self, ptid: int, priority: int) -> None:
        if priority < 1:
            raise ConfigError(f"priority must be >= 1, got {priority}")
        self.thread(ptid).priority = priority
        self.arbiter.note_priority()
        # priorities feed the issue order; re-plan any in-flight batch
        self._wake.fire()

    def runnable_count(self) -> int:
        return sum(1 for t in self.threads if t.runnable)

    def idle(self) -> bool:
        return self.runnable_count() == 0

    def check(self) -> None:
        """Raise if the core triple-faulted (call after a run)."""
        if self.halted:
            raise TripleFault(self.halt_reason or "core halted")

    def attach_obs(self, obs: Any) -> None:
        """Wire a :class:`repro.obs.MachineObs` bundle into this core.

        Must happen before the engine first dispatches the issue loop
        (``Machine.__init__`` does; the loop reads ``profile`` once, on
        its first resume).
        """
        self.timeline = obs.timeline
        self.profile = obs.profiler.core(self.core_id)
        self.metrics = obs.registry
        self._wakeup_hist = obs.registry.histogram(
            f"core{self.core_id}.wakeup_latency_cycles")
        self.storage.attach_obs(obs.timeline, self.core_id, self.engine)

    # ==================================================================
    # the issue loop
    # ==================================================================
    def _run(self):
        engine = self.engine
        threads = self.threads
        RUNNABLE = PtidState.RUNNABLE
        WAITING = PtidState.WAITING
        # per-core constants and bound methods, hoisted out of the
        # per-round body (this loop resumes once per simulated cycle).
        # `profile` is read at the first engine dispatch, after
        # Machine.__init__ has had its chance to attach_obs.
        width = self.smt_width
        select = self.arbiter.select
        issue_one = self._issue_one
        claim = engine.claim
        wake = self._wake
        profile = self.profile
        # Only a resume the engine's run loop dispatched from the step
        # lane may claim its next round in place of yielding it
        # (Engine.claim): one by the wake signal or the lazy batch's
        # AnyOf can run nested inside a callback that continues at `now`.
        stepped = False
        # Profiler attribution (obs/profile.py): a pend() before every
        # wait and a settle() after it put every cycle the loop lives
        # through in exactly one bucket, so the per-core buckets sum to
        # engine.now. Attribution only observes: it never changes what
        # the loop does or how long it sleeps. It must also be a pure
        # function of simulation state, never of whether a batch plan
        # happened to fire (the plan horizon reads the host engine's
        # foreign-event queue, which differs between a single-engine and
        # a sharded run): a round where every issueable thread is
        # mid-`work` -- the exact trigger condition of
        # _plan_fast_forward -- is a work-burn ("fastforward") cycle
        # whether it was batched or stepped.
        while not self.halted:
            # ptid-ordered by construction (threads is ptid-ordered);
            # any state transition clears the cache
            runnable = self._runnable_cache
            if runnable is None:
                runnable = [t for t in threads if t.state is RUNNABLE]
                self._runnable_cache = runnable
            if not runnable:
                idle_from = engine.now
                if profile is not None:
                    # a wait with parked threads is the paper's mwait
                    # block; with none it is true idle (nothing loaded
                    # or all stopped)
                    parked = any(t.state is WAITING for t in threads)
                    profile.pend("mwait" if parked else "idle", idle_from)
                yield wake
                stepped = False
                if profile is not None:
                    profile.settle(engine.now)
                self.idle_cycles += engine.now - idle_from
                continue
            now = engine._now
            issueable = [t for t in runnable if t.busy_until <= now]
            if not issueable:
                delta = min(t.busy_until for t in runnable) - now
                if profile is not None:
                    profile.pend("stall", now)
            else:
                plan = self._plan_fast_forward(runnable, issueable, now)
                if plan is not None:
                    cycles, lazy, contended = plan
                    if profile is not None:
                        profile.pend("fastforward", now)
                    if lazy:
                        # interruptible batch: a step event (another
                        # core's resume) falls inside the window, so park
                        # until the timeout or a wake and account
                        # whatever elapsed
                        yield AnyOf((cycles, wake))
                        stepped = False
                        if profile is not None:
                            profile.settle(engine.now)
                        elapsed = engine.now - now
                        if elapsed:
                            self._apply_fast_forward(
                                issueable, elapsed, contended, now)
                        continue
                    delta = self._apply_fast_forward(
                        issueable, cycles, contended, now)
                else:
                    if profile is not None:
                        # evaluated before issuing, which decrements
                        bucket = "fastforward"
                        for thread in issueable:
                            if thread.work_remaining <= 0:
                                bucket = "issue"
                                break
                    picked = select(issueable, width)
                    self.issue_rounds += 1
                    for thread in picked:
                        issue_one(thread)
                    # merged stall: when every still-runnable thread is
                    # busy past now+1, resuming at now+1 would only
                    # rediscover the stall and park again until the
                    # earliest busy_until -- skip the intermediate resume
                    # and sleep there directly. (State changes from
                    # outside land at their own simulation times either
                    # way; the skipped resume had no side effects.) The
                    # profiler still sees the round's own cycle, then the
                    # stall. A state transition cleared the cache: step.
                    delta = 1
                    if self._runnable_cache is not None:
                        delta = min(t.busy_until for t in runnable) - now
                        if delta < 1:
                            delta = 1
                    if profile is not None:
                        profile.pend_split(bucket, now, "stall")
            if not (stepped and claim(now + delta)):
                yield delta
                stepped = True
            if profile is not None:
                profile.settle(engine.now)

    def _plan_fast_forward(self, thread_list, issueable, now: int):
        """Plan a busy-cycle batch that cannot change anything mid-way.

        When every issueable thread is mid-``work``, each upcoming round
        only decrements counters -- no instruction fetch, no memory
        traffic, no traces. The issue pattern is then frozen until (a) a
        burst ends (under slot contention: the last whole rotation after
        which every thread still has work left), (b) a busy/starting
        thread re-joins the pool, (c) a
        foreign engine event fires (anything that can wake or stop a
        thread is a main-queue event), or (d) the ``run(until=...)``
        horizon, past which our catch-up resume would never be
        dispatched. Other cores' per-cycle resumes live in the engine's
        step lane and do *not* bound the batch; instead, if any step
        event falls inside the window the batch is *interruptible*
        (``lazy``): the caller waits on ``AnyOf([cycles, self._wake])``
        and the accounting is applied at resume time for however many
        rounds actually elapsed. Every path that mutates this core's
        thread pool from outside fires ``self._wake``, so a lazy batch
        can never sleep through a state change.

        Returns ``(cycles, lazy, contended)`` or ``None`` when no safe
        batch exists and the round must issue naively.
        """
        min_work = None
        for t in issueable:
            w = t.work_remaining
            if w <= 0:
                return None
            if min_work is None or w < min_work:
                min_work = w
        n = len(issueable)
        width = self.smt_width
        contended = n > width
        if not contended:
            # no slot contention: every thread burns one cycle per round
            horizon = min_work
        elif not self.arbiter.uniform(issueable):
            # unequal weights: the credit walk's pick pattern is not
            # rotation-periodic, so step the contended rounds one by one
            return None
        else:
            # uniform weights pick in round-robin rotation, which is
            # periodic: any n consecutive rounds over a stable n-thread
            # set pick every thread exactly `width` times. Whole
            # rotations that leave every thread at least one cycle of
            # work keep each batched round all-mid-work, as a stepped
            # round would see it
            horizon = (min_work - 1) // width * n
        for t in thread_list:
            b = t.busy_until
            if b > now and b - now < horizon:
                horizon = b - now
        engine = self.engine
        nxt = engine.next_foreign_event_time()
        if nxt is not None and nxt - now < horizon:
            horizon = nxt - now
        until = engine.run_until
        if until is not None and until - now < horizon:
            horizon = until - now
        cycles = horizon - horizon % n if contended else horizon
        if cycles < 2:
            return None
        step = engine._next_step_time()
        lazy = step is not None and step < now + cycles
        return cycles, lazy, contended

    def _apply_fast_forward(self, issueable, rounds: int, contended: bool,
                            now: int) -> int:
        """Account ``rounds`` issue rounds of a planned batch.

        Replays the exact per-round bookkeeping (``cycles_busy``,
        ``issue_rounds``, storage recency order, the arbiter's rotation
        pointer) naive stepping would have produced over cycles
        ``now .. now+rounds``, so a fast-forwarded run is
        indistinguishable from naive stepping except for
        ``events_processed``. For a lazy batch ``rounds`` may be any
        prefix of the planned cycles (the wake interrupted the wait).
        Returns the cycles consumed (the eager caller yields it).
        """
        arbiter = self.arbiter
        n = len(issueable)
        touch = self.storage.touch
        end = now + rounds
        if not contended:
            # an uncontended select picks the whole pool in rotation
            # order and leaves pointer and credits unchanged, so every
            # round of the batch repeats the first one's picks and order
            for t in arbiter.select(issueable, self.smt_width):
                t.work_remaining -= rounds
                t.cycles_busy += rounds
                t.busy_until = end
                touch(t.ptid)
            self.issue_rounds += rounds
            return rounds
        # contended round robin: replay the pick stream arithmetically.
        # Over `rounds` rounds the arbiter picks `rounds * width`
        # consecutive rotation positions starting at `_next`; thread j
        # (in ptid order) is picked once per full wrap plus once more if
        # its position falls inside the remainder.
        width = self.smt_width
        total = rounds * width
        base, rem = divmod(total, n)
        ordered = sorted(issueable, key=lambda t: t.ptid)
        start = arbiter._next % n
        for j, t in enumerate(ordered):
            cnt = base + (1 if (j - start) % n < rem else 0)
            if cnt:
                t.work_remaining -= cnt
                t.cycles_busy += cnt
                t.busy_until = end
        # replay the storage-recency stream of the final picks: the last
        # min(total, n) picks cover distinct threads, so their order is
        # all LRU ever sees
        for k in range(max(0, total - n), total):
            touch(ordered[(start + k) % n].ptid)
        arbiter._next = (start + total) % n
        self.issue_rounds += rounds
        return rounds

    def _issue_one(self, thread: HardwareThread) -> None:
        if thread.work_remaining > 0:
            # mid-`work`: burn one issue-slot cycle (true processor
            # sharing -- two work-heavy threads on one slot take 2x)
            thread.work_remaining -= 1
            thread.busy_until = self.engine.now + 1
            thread.cycles_busy += 1
            self.storage.touch(thread.ptid)
            return
        # the chain's sentinel slot at pc == len (and the bounds check
        # for wild jumps) is the implicit halt, as is issuing a ptid that
        # was never given a program
        decoded = thread._decoded
        pc = thread.arch.pc
        handler = decoded.handlers[pc] \
            if decoded is not None and 0 <= pc < decoded.size else None
        if handler is None:
            self._halt_thread(thread)
            return
        now = self.engine.now
        try:
            cost = handler(self, thread)
        except GuestFault as fault:
            self._raise_exception(
                thread, ExceptionKind.from_guest_fault_kind(fault.kind),
                address=fault.faulting_address)
            cost = handler.latency
        thread.busy_until = now + cost
        thread.last_issue_time = now
        thread.instructions_executed += 1
        thread.cycles_busy += cost
        self.instructions_retired += 1
        self.storage.touch(thread.ptid)
        if self._traced:
            self.tracer.emit(
                "issue", f"core{self.core_id} ptid{thread.ptid}"
                f" {thread.program.instructions[pc]}", cost=cost)

    # ==================================================================
    # the cold instructions' semantics (the hot ones are the makers in
    # repro.isa.decode, which reach these through _generic)
    # ==================================================================
    # --- operand helpers ------------------------------------------------
    @staticmethod
    def _reg(thread: HardwareThread, operand: Reg) -> int:
        return thread.arch.read(operand.name)

    @staticmethod
    def _value(thread: HardwareThread, operand) -> int:
        """Value of an R-or-I operand."""
        if isinstance(operand, Reg):
            return thread.arch.read(operand.name)
        return operand.value

    # --- modeling pseudo-ops ---------------------------------------------
    def _op_fwork(self, thread, ops):
        thread.arch.vector_dirty = True
        thread.work_remaining = max(ops[0].value - 1, 0)
        thread._fused = None
        return 0

    def _op_vmovi(self, thread, ops):
        thread.arch.write(ops[0].name, ops[1].value)
        return 0

    def _op_vadd(self, thread, ops):
        thread.arch.write(ops[0].name, self._reg(thread, ops[1])
                          + self._reg(thread, ops[2]))
        return 0

    # --- thread management -------------------------------------------------
    def _op_start(self, thread, ops):
        target, extra = self._authorize(thread, ops[0], Permission.START)
        if target.state is PtidState.DISABLED:
            # the started thread cannot issue until its state is refilled
            # (pipeline depth for RF-resident contexts, bulk transfer
            # from L2/L3 otherwise); the *caller* keeps running
            latency = self.storage.start_latency(target.ptid, self._idle_ptids())
            target.busy_until = max(target.busy_until, self.engine.now + latency)
            target.finished = False
            target.make_runnable(reason="restart")
            target.starts += 1
            self.arbiter.note_enqueue(target)
            self._wake.fire()
        return extra

    def _op_stop(self, thread, ops):
        target, extra = self._authorize(thread, ops[0], Permission.STOP)
        self._materialize_fused(target)
        # stopping a waiting ptid retires its directory sharer entries
        # (0 on the flat bus)
        disarm = target.monitor.cancel()
        target.make_disabled()
        target.stops += 1
        self.arbiter.forget(target.ptid)
        return extra + self.costs.hw_stop_cycles + disarm

    def _op_rpull(self, thread, ops):
        target, extra = self._authorize_register(
            thread, ops[0], ops[2].name, write=False)
        if target.state is not PtidState.DISABLED:
            raise GuestFault("thread-state-fault",
                             f"rpull target ptid {target.ptid} not disabled")
        thread.arch.write(ops[1].name, target.arch.read(ops[2].name))
        return extra + self.costs.rpull_rpush_cycles

    def _op_rpush(self, thread, ops):
        target, extra = self._authorize_register(
            thread, ops[0], ops[1].name, write=True)
        if target.state is not PtidState.DISABLED:
            raise GuestFault("thread-state-fault",
                             f"rpush target ptid {target.ptid} not disabled")
        target.arch.write(ops[1].name, self._reg(thread, ops[2]))
        return extra + self.costs.rpull_rpush_cycles

    def _op_invtid(self, thread, ops):
        target, extra = self._resolve(thread, self._value(thread, ops[0]))
        remote_vtid = self._value(thread, ops[1])
        self.tdt_cache.invalidate(target.arch.tdtr, remote_vtid)
        return extra

    # --- exceptions & security ---------------------------------------------
    def _op_trap(self, thread, ops):
        self._raise_exception(thread, ExceptionKind.SYSCALL,
                              address=ops[0].value)
        return 0

    def _op_privop(self, thread, ops):
        if not thread.supervisor:
            self._raise_exception(thread, ExceptionKind.PRIVILEGE_FAULT,
                                  address=ops[0].value)
        return 0

    def _op_csrr(self, thread, ops):
        name = ops[1].name
        if (thread.arch.register_class(name) is RegisterClass.PRIVILEGED
                and not thread.supervisor):
            self._raise_exception(thread, ExceptionKind.PRIVILEGE_FAULT)
            return 0
        thread.arch.write(ops[0].name, thread.arch.read(name))
        return 0

    def _op_csrw(self, thread, ops):
        name = ops[0].name
        if (thread.arch.register_class(name) is RegisterClass.PRIVILEGED
                and not thread.supervisor):
            self._raise_exception(thread, ExceptionKind.PRIVILEGE_FAULT)
            return 0
        thread.arch.write(name, self._reg(thread, ops[1]))
        return 0

    def _op_setkey(self, thread, ops):
        self.keys.set_key(thread.ptid, self._reg(thread, ops[0]))
        return 0

    #: opcode -> cold-op method, filled in from the _op_* methods once
    #: the class is defined
    _DISPATCH: Dict[str, Callable] = {}

    # ==================================================================
    # vtid resolution and permission checks
    # ==================================================================
    def _resolve(self, thread: HardwareThread,
                 vtid: int) -> Tuple[HardwareThread, int]:
        """vtid -> hardware thread, via the caller's TDT (or the boot
        direct map for supervisors with no TDT). Returns (thread, cycles)."""
        base = thread.arch.tdtr
        if base == 0:
            if thread.supervisor:
                if not 0 <= vtid < len(self.threads):
                    raise GuestFault("permission-fault",
                                     f"direct ptid {vtid} out of range")
                return self.threads[vtid], 0
            raise GuestFault("permission-fault",
                             f"ptid {thread.ptid} has no TDT")
        entry, cycles = self.tdt_cache.lookup(self.memory, base, vtid)
        if (not entry.valid and not thread.supervisor
                and self.security_model == "tdt"):
            # Table 1: the all-zero-permission row is "(invalid)".
            # Supervisors bypass permission bits, so for them the ptid
            # mapping alone suffices. Under the secret-key model the
            # table is a pure vtid->ptid map; authority comes from the
            # presented key, checked by the caller.
            raise GuestFault("permission-fault", f"vtid {vtid} invalid in TDT")
        if not 0 <= entry.ptid < len(self.threads):
            raise GuestFault("permission-fault",
                             f"TDT maps vtid {vtid} to bad ptid {entry.ptid}")
        target = self.threads[entry.ptid]
        target._tdt_entry_cache = entry  # type: ignore[attr-defined]
        return target, cycles

    def _authorize(self, thread: HardwareThread, operand,
                   needed: Permission) -> Tuple[HardwareThread, int]:
        """Resolve a vtid operand and check start/stop permission."""
        vtid = self._value(thread, operand)
        target, cycles = self._resolve(thread, vtid)
        if thread.supervisor:
            return target, cycles
        if self.security_model == "keys":
            presented = thread.arch.read(KEY_REGISTER)
            self.keys.authorize(target.ptid, presented, supervisor=False)
            return target, cycles
        entry: TdtEntry = target._tdt_entry_cache  # set by _resolve
        if not entry.allows(needed):
            raise GuestFault("permission-fault",
                             f"vtid {vtid}: permission {needed!r} denied")
        return target, cycles

    def _authorize_register(self, thread: HardwareThread, operand,
                            reg_name: str, write: bool) -> Tuple[HardwareThread, int]:
        """Resolve a vtid operand and check register-access permission."""
        vtid = self._value(thread, operand)
        target, cycles = self._resolve(thread, vtid)
        reg_class = target.arch.register_class(reg_name)
        if thread.supervisor:
            return target, cycles
        if reg_class is RegisterClass.PRIVILEGED:
            raise GuestFault("permission-fault",
                             f"register {reg_name} is supervisor-only")
        if self.security_model == "keys":
            presented = thread.arch.read(KEY_REGISTER)
            self.keys.authorize(target.ptid, presented, supervisor=False)
            return target, cycles
        entry: TdtEntry = target._tdt_entry_cache
        if not entry.allows_register(reg_class, write=write):
            raise GuestFault("permission-fault",
                             f"vtid {vtid}: register {reg_name} access denied")
        return target, cycles

    # ==================================================================
    # exceptions, halts, wakeups
    # ==================================================================
    def _raise_exception(self, thread: HardwareThread, kind: ExceptionKind,
                         address: int = 0) -> None:
        thread.exceptions_raised += 1
        faulting_pc = thread.arch.pc - 1  # pc already advanced past the instr
        edp = thread.arch.edp
        if edp == 0:
            self._triple_fault(thread, kind)
            return
        descriptor = ExceptionDescriptor.build(
            kind, thread.ptid, faulting_pc, address, self.engine.now)
        descriptor.write(self.memory, edp)
        thread.monitor.cancel()
        thread.make_disabled()
        self.arbiter.forget(thread.ptid)
        if self.tracer is not None:
            self.tracer.emit("exception", f"ptid{thread.ptid} {kind.name}",
                             pc=faulting_pc, address=address)

    def _triple_fault(self, thread: HardwareThread, kind: ExceptionKind) -> None:
        """Paper: an exception in a thread with no handler 'indicates a
        serious kernel bug akin to a triple-fault, and can be handled by
        halting or resetting the CPU'."""
        self.halted = True
        self.halt_reason = (f"triple fault: ptid {thread.ptid} raised "
                            f"{kind.name} with no exception handler (edp=0)")
        # freeze every thread at its instruction-at-a-time state
        for other in self.threads:
            self._materialize_fused(other)
        thread.make_disabled()
        self._wake.fire()

    def _halt_thread(self, thread: HardwareThread) -> None:
        thread.finished = True
        thread.monitor.cancel()
        thread.make_disabled()
        self.arbiter.forget(thread.ptid)

    def _materialize_fused(self, thread: HardwareThread) -> None:
        """Rewind an interrupted fused superinstruction (cold path).

        A fused run executes all its register effects on the first pick
        and burns the remaining cycles through ``work_remaining``; an
        external stop (or a core halt) can land mid-burn, where
        instruction-at-a-time execution would only have executed a
        prefix. Restore the undo snapshot, replay the completed prefix,
        park the pc on the first unexecuted instruction, and roll back
        the pre-credited retirement counters -- after this the thread is
        byte-identical to its unfused twin.
        """
        fused = thread._fused
        if fused is None:
            return
        thread._fused = None
        if thread.work_remaining <= 0:
            return   # the run had already completed; record was stale
        completed = fused.length - thread.work_remaining
        gprs = thread.arch.gprs
        for index, value in fused.undo:
            gprs[index] = value
        for effect in fused.effects[:completed]:
            effect(gprs)
        thread.arch.pc = fused.start_pc + completed
        rollback = fused.length - completed
        thread.instructions_executed -= rollback
        self.instructions_retired -= rollback
        thread.work_remaining = 0

    def _idle_ptids(self) -> Iterator[int]:
        """Contexts safe to demote from the register file (lazily: the
        store reads them only to make room in a full one)."""
        return (t.ptid for t in self.threads if not t.runnable)

    def _make_wakeup(self, thread: HardwareThread):
        def wakeup(_info: dict) -> None:
            if thread.state is PtidState.WAITING:
                thread.make_runnable()
                thread.wakeups += 1
                self.arbiter.note_enqueue(thread)
                latency = self.storage.start_latency(
                    thread.ptid, self._idle_ptids())
                wake_cost = self.costs.monitor_wakeup_cycles + latency
                thread.busy_until = max(thread.busy_until,
                                        self.engine.now + wake_cost)
                thread.monitor.consume_wakeup()
                if self._wakeup_hist is not None:
                    # notification-to-issueable latency: the monitor
                    # wakeup plus the storage-tier start cost
                    self._wakeup_hist.record(wake_cost)
                self._wake.fire()
            # else: the pending flag makes the next mwait fall through
        return wakeup


# Build the cold-op table once, from the _op_* methods.
HWCore._DISPATCH = {
    name[4:]: getattr(HWCore, name)
    for name in dir(HWCore) if name.startswith("_op_")
}
