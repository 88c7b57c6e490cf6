"""Naive references for the core: the oracles its fast paths match.

Three fast paths, three oracles. :func:`naive_interpreter` checks the
pre-decoded handler chains; :func:`naive_stepping` checks the
busy-cycle fast-forward; :func:`no_claims` checks the claimed rounds.

The naive ISA interpreter
-------------------------

``repro.isa.decode`` compiles every program once into per-instruction
closures (operands resolved to GPR slots, labels to indices, latencies
folded in, straight-line ALU runs fused) and is the simulator's only
interpreter. This module keeps the opposite design, deliberately
simple, so that compilation has an independent check: every issue
fetches the :class:`~repro.isa.instructions.Instruction`, advances the
pc, looks the opcode up in a dict, reads and writes registers by name
through ``ArchState``, and resolves labels at run time. The hot
opcodes' semantics below are written independently of the decoder's
makers; the cold ones (thread management, CSRs, traps, vector ops)
have a single definition, ``HWCore._DISPATCH``, which both paths call.

Use it as a context manager around a machine's first run: a core's
issue loop binds ``_issue_one`` when it first resumes, and keeps it::

    machine = build_machine(...)
    ...
    with naive_interpreter():
        machine.run()

A traced machine under the oracle emits the same ``issue`` record per
instruction as a traced decoded machine, which runs unfused.

Naive stepping
--------------
``HWCore._plan_fast_forward`` batches the issue rounds in which every
issueable thread is mid-``work``, and claims the batch is invisible
except in ``engine.events_processed``. Under :func:`naive_stepping`
every such round runs one cycle at a time instead; the issue loop looks
the planner up each round, so the block may start after the machine
has run.

No claims
---------
An issue loop that the engine resumed from its step lane claims its
next round in place (``Engine.claim``) when that round would be the
very next dispatch, and the claim counts as a dispatched event. Under
:func:`no_claims` the engine refuses every claim, so each round is
yielded to the engine and dispatched from the step lane: the
behaviour before claims existed. A core binds ``engine.claim`` when it
first resumes, so enter the block before the machine's first run.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager

from repro.errors import GuestFault, IsaError
from repro.hw.core import HWCore
from repro.hw.exceptions import ExceptionKind
from repro.isa.instructions import Label, OPS, Reg
from repro.sim.engine import Engine


def _read(thread, operand) -> int:
    return thread.arch.read(operand.name)


def _target(thread, operand) -> int:
    """Branch target: a label resolved through the thread's program."""
    if isinstance(operand, Label):
        return thread.program.resolve(operand.name)
    return operand.value


def _nop(core, thread, ops):
    return 0


def _movi(core, thread, ops):
    thread.arch.write(ops[0].name, ops[1].value)
    return 0


def _mov(core, thread, ops):
    thread.arch.write(ops[0].name, _read(thread, ops[1]))
    return 0


def _binop(fn):
    def op(core, thread, ops):
        thread.arch.write(ops[0].name,
                          fn(_read(thread, ops[1]), _read(thread, ops[2])))
        return 0
    return op


def _immop(fn):
    def op(core, thread, ops):
        thread.arch.write(ops[0].name, fn(_read(thread, ops[1]), ops[2].value))
        return 0
    return op


def _div(core, thread, ops):
    divisor = _read(thread, ops[2])
    if divisor == 0:
        core._raise_exception(thread, ExceptionKind.DIV_ZERO)
        return 0
    thread.arch.write(ops[0].name, _read(thread, ops[1]) // divisor)
    return 0


def _write_charge(core) -> int:
    """The memory write's cost beyond base latency: an L1 hit, plus the
    directory's sharer invalidations when coherence is modeled."""
    coherence = core.memory.watch_bus.coherence
    if coherence is not None:
        return core.costs.l1_hit_cycles + coherence.last_write_cycles
    return core.costs.l1_hit_cycles


def _ld(core, thread, ops):
    address = _read(thread, ops[1]) + ops[2].value
    thread.arch.write(ops[0].name, core.memory.load(address))
    return core.costs.l1_hit_cycles


def _st(core, thread, ops):
    address = _read(thread, ops[0]) + ops[1].value
    core.memory.store(address, _read(thread, ops[2]),
                      source=thread.mem_source)
    return _write_charge(core)


def _faa(core, thread, ops):
    new = core.memory.fetch_add(_read(thread, ops[1]), ops[2].value,
                                source=thread.mem_source)
    thread.arch.write(ops[0].name, new)
    return _write_charge(core)


def _jmp(core, thread, ops):
    thread.arch.pc = _target(thread, ops[0])
    return 0


def _branch(cond):
    def op(core, thread, ops):
        if cond(_read(thread, ops[0]), _read(thread, ops[1])):
            thread.arch.pc = _target(thread, ops[2])
        return 0
    return op


def _jal(core, thread, ops):
    thread.arch.write(ops[0].name, thread.arch.pc)   # already advanced
    thread.arch.pc = _target(thread, ops[1])
    return 0


def _jr(core, thread, ops):
    thread.arch.pc = _read(thread, ops[0])
    return 0


def _halt(core, thread, ops):
    core._halt_thread(thread)
    return 0


def _work(core, thread, ops):
    length = ops[0]
    if isinstance(length, Reg):
        length = _read(thread, length)
    else:
        length = length.value
    thread.work_remaining = max(length - 1, 0)
    thread._fused = None
    return 0


def _monitor(core, thread, ops):
    return thread.monitor.arm(_read(thread, ops[0]))


def _mwait(core, thread, ops):
    if thread.monitor.wait():
        thread.make_waiting()
    return 0


#: the hot opcodes: op(core, thread, operands) -> extra cycles
HOT_OPS = {
    "nop": _nop,
    "movi": _movi,
    "mov": _mov,
    "add": _binop(operator.add),
    "addi": _immop(operator.add),
    "sub": _binop(operator.sub),
    "mul": _binop(operator.mul),
    "div": _div,
    "and_": _binop(operator.and_),
    "or_": _binop(operator.or_),
    "xor": _binop(operator.xor),
    "shl": _immop(operator.lshift),
    "shr": _immop(operator.rshift),
    "ld": _ld,
    "st": _st,
    "faa": _faa,
    "jmp": _jmp,
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(operator.lt),
    "bge": _branch(operator.ge),
    "jal": _jal,
    "jr": _jr,
    "halt": _halt,
    "work": _work,
    "monitor": _monitor,
    "mwait": _mwait,
}


def _execute(core, thread, instruction) -> int:
    op = instruction.op
    semantics = HOT_OPS.get(op) or HWCore._DISPATCH[op]
    latency = OPS[op].latency
    try:
        extra = semantics(core, thread, instruction.operands)
    except GuestFault as fault:
        core._raise_exception(
            thread, ExceptionKind.from_guest_fault_kind(fault.kind),
            address=fault.faulting_address)
        return latency
    return latency + (extra or 0)


#: issues routed through the oracle so far (work-burn cycles included)
issued = 0


def naive_issue_one(core, thread) -> None:
    """``HWCore._issue_one`` as fetch, advance, dispatch, account."""
    global issued
    issued += 1
    if thread.work_remaining > 0:
        thread.work_remaining -= 1
        thread.busy_until = core.engine.now + 1
        thread.cycles_busy += 1
        core.storage.touch(thread.ptid)
        return
    if thread.program is None:
        core._halt_thread(thread)
        return
    try:
        instruction = thread.program.fetch(thread.arch.pc)
    except IsaError:
        # running off the end of the program is an implicit halt
        core._halt_thread(thread)
        return
    thread.arch.pc += 1
    cost = max(_execute(core, thread, instruction), 1)
    now = core.engine.now
    thread.busy_until = now + cost
    thread.last_issue_time = now
    thread.instructions_executed += 1
    thread.cycles_busy += cost
    core.instructions_retired += 1
    core.storage.touch(thread.ptid)
    tracer = core.tracer
    if tracer is not None and tracer.enabled:
        tracer.emit("issue", f"core{core.core_id} ptid{thread.ptid}"
                    f" {instruction}", cost=cost)


@contextmanager
def naive_interpreter():
    """Issue every instruction run inside the block through the oracle.

    Raises ``AssertionError`` if the block issued nothing through it:
    cores that had bound the decoded ``_issue_one`` before the block
    would otherwise compare the decoded path with itself.
    """
    before = issued
    decoded = HWCore._issue_one
    HWCore._issue_one = naive_issue_one
    try:
        yield
    finally:
        HWCore._issue_one = decoded
    if issued == before:
        raise AssertionError("the block issued nothing through the naive "
                             "oracle: did a core start before it?")


@contextmanager
def naive_stepping():
    """Step every issue round inside the block one cycle at a time.

    Raises ``AssertionError`` if no core asked for a plan inside the
    block: the caller would then be comparing fast-forward with itself.
    """
    intercepted = 0

    def plan_nothing(core, thread_list, issueable, now):
        nonlocal intercepted
        intercepted += 1
        return None

    planner = HWCore._plan_fast_forward
    HWCore._plan_fast_forward = plan_nothing
    try:
        yield
    finally:
        HWCore._plan_fast_forward = planner
    if not intercepted:
        raise AssertionError("no core planned a fast-forward batch "
                             "inside the block")


@contextmanager
def no_claims():
    """Refuse every claim made inside the block.

    Raises ``AssertionError`` if no core asked to claim a round inside
    the block: its cores bound ``engine.claim`` before it (or never
    stepped), and the caller would be comparing claims with themselves.
    """
    asked = 0

    def refuse(engine, time):
        nonlocal asked
        asked += 1
        return False

    claim = Engine.claim
    Engine.claim = refuse
    try:
        yield
    finally:
        Engine.claim = claim
    if not asked:
        raise AssertionError("no core asked to claim a round inside the "
                             "block: did a core start before it?")
