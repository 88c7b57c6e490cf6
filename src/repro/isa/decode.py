"""Pre-decoded handler chains: the one interpreter of the ISA.

Each :class:`Instruction` of a program is compiled once into a closure
``handler(core, thread) -> cost`` with

- register operands resolved to GPR list indices (read/written
  directly, bypassing ``ArchState.read``/``write`` string dispatch),
- ``Label`` branch targets resolved to instruction indices,
- the opcode table's base latency (``OPS[op].latency``) folded into the
  returned cost, and
- the fall-through pc captured as a constant (``pc`` is assigned
  exactly once per instruction, before anything can fault).

The makers in :data:`MAKERS` are the only definition of the hot
opcodes' semantics. They need no fallback: :class:`Instruction` only
admits GPRs in ``R`` operands, so every operand they see is a plain
``rN`` slot, an immediate or a branch target. The cold tail
(thread management, CSRs, traps, vector ops) is defined once, by
``HWCore._op_*``, and reached through :func:`_generic`. The naive
fetch-and-dispatch interpreter the handlers are checked against lives
in ``tests/naive_reference.py``.

Straight-line runs of single-cycle, pure-GPR ALU instructions are
additionally *fused* into superinstructions: the first pick executes
the whole run's register effects eagerly and converts the remaining
``k-1`` instructions into ``work``-style burn cycles, so the core
issues (and the event engine schedules) once per run instead of once
per instruction while the cycle-for-cycle issue pattern other threads
observe stays identical. An undo log makes the fusion invisible to
external observers: if the thread is stopped or the core halts
mid-run, :meth:`repro.hw.core.HWCore._materialize_fused` rewinds to
the exact architectural state instruction-at-a-time execution would
show. A traced core decodes with fusion blocked at every index, so its
tracer sees one ``issue`` record per instruction.

Cost contract (enforced by ``HWCore._issue_one``): every handler
returns the *total* cost (base latency plus any dynamic extra), always
>= 1; a handler that raises :class:`GuestFault` is charged its
``latency`` attribute (the base latency) by the dispatcher. Handlers
assign ``thread.arch.pc`` before any faulting access so the exception
descriptor's ``faulting_pc = pc - 1`` arithmetic holds.

The decoded table has ``len(program) + 1`` slots; the extra slot holds
``None``, the HALT sentinel: running off the end of the program is an
implicit halt, a plain ``is None`` check, so the hot loop never
raises. Wild jumps outside ``[0, len]`` are bounds-checked by the
dispatcher and halt identically.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Optional

from repro.errors import IsaError
from repro.isa.instructions import Instruction, Label, OPS, Reg

Handler = Callable[..., int]


class DecodedProgram:
    """A program compiled to a handler chain (one closure per pc)."""

    __slots__ = ("handlers", "size")

    def __init__(self, handlers: List[Optional[Handler]]):
        self.handlers = handlers
        #: valid pc range is [0, size); handlers[len] is the HALT sentinel
        self.size = len(handlers)


class FusedRun:
    """Undo record for an in-flight superinstruction (see module doc)."""

    __slots__ = ("start_pc", "length", "undo", "effects")

    def __init__(self, start_pc: int, length: int, undo, effects):
        self.start_pc = start_pc
        self.length = length
        self.undo = undo          # [(gpr_index, value before the run)]
        self.effects = effects    # per-instruction register effects


# ----------------------------------------------------------------------
# operand helpers
# ----------------------------------------------------------------------
def _gpr(operand) -> int:
    """GPR slot index of an ``R`` operand (``Instruction`` checked it)."""
    return int(operand.name[1:])


def _resolve_target(operand, program) -> Optional[int]:
    """Branch target as an instruction index, or None if undefined.

    An undefined label raises ``IsaError`` when the branch executes,
    not at decode time: a dangling branch that never runs must not
    break loading.
    """
    if isinstance(operand, Label):
        if operand.name in program.labels:
            return program.labels[operand.name]
        return None
    return operand.value


# ----------------------------------------------------------------------
# per-op handler builders. Each maker takes (instruction, next_pc,
# latency, program) and returns handler(core, thread) -> cost.
# ----------------------------------------------------------------------
def _generic(operands, next_pc: int, latency: int, method) -> Handler:
    """A cold op: delegate to its ``HWCore._op_*`` semantics.

    The per-instruction constants (bound method, operand tuple, base
    latency, next pc) are still resolved once.
    """
    def run(core, thread):
        thread.arch.pc = next_pc
        extra = method(core, thread, operands)
        return latency + (extra or 0)
    run.latency = latency
    return run


def _make_alu(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    effect = _alu_effect(instruction)

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        effect(arch.gprs)
        return latency
    run.latency = latency
    return run


#: ALU ops whose whole behavior is a pure function of the GPR file:
#: they cannot fault and have no work/monitor/vector side effects
FUSABLE_OPS = frozenset(
    ["nop", "movi", "mov", "add", "addi", "sub",
     "and_", "or_", "xor", "shl", "shr"])


def _alu_effect(instruction: Instruction):
    """Compile a :data:`FUSABLE_OPS` instruction to ``effect(gprs)``."""
    op = instruction.op
    ops = instruction.operands
    if op == "nop":
        def effect(gprs):
            return None
        effect.dest = None
        return effect
    rd = _gpr(ops[0])
    if op == "movi":
        imm = ops[1].value

        def effect(gprs):
            gprs[rd] = imm
    elif op == "mov":
        rs = _gpr(ops[1])

        def effect(gprs):
            gprs[rd] = gprs[rs]
    elif op in ("addi", "shl", "shr"):
        rs = _gpr(ops[1])
        imm = ops[2].value
        if op == "addi":
            def effect(gprs):
                gprs[rd] = gprs[rs] + imm
        elif op == "shl":
            def effect(gprs):
                gprs[rd] = gprs[rs] << imm
        else:
            def effect(gprs):
                gprs[rd] = gprs[rs] >> imm
    else:  # add, sub, and_, or_, xor
        rs = _gpr(ops[1])
        rt = _gpr(ops[2])
        if op == "add":
            def effect(gprs):
                gprs[rd] = gprs[rs] + gprs[rt]
        elif op == "sub":
            def effect(gprs):
                gprs[rd] = gprs[rs] - gprs[rt]
        elif op == "and_":
            def effect(gprs):
                gprs[rd] = gprs[rs] & gprs[rt]
        elif op == "or_":
            def effect(gprs):
                gprs[rd] = gprs[rs] | gprs[rt]
        else:
            def effect(gprs):
                gprs[rd] = gprs[rs] ^ gprs[rt]
    effect.dest = rd
    return effect


def _fusable(instruction: Instruction):
    """The effect fusion may absorb, or None: a fusable ALU op whose
    table latency is one cycle (a fused run burns one issue cycle per
    instruction)."""
    op = instruction.op
    if op in FUSABLE_OPS and OPS[op].latency == 1:
        return _alu_effect(instruction)
    return None


def _make_fused(effects, start_pc: int, length: int) -> Handler:
    """Superinstruction: run ``length`` fused ALU ops in one pick.

    All register effects apply eagerly (with an undo snapshot of the
    distinct destination slots); the remaining ``length - 1``
    instructions become burn cycles through the existing
    ``work_remaining`` machinery, so the thread occupies its issue slot
    for exactly one cycle per fused instruction and the pick stream
    other threads see is cycle-identical to instruction-at-a-time
    execution. Retirement counters are credited up front and rolled
    back by ``_materialize_fused`` if the run is interrupted.
    """
    end_pc = start_pc + length
    dests = tuple(sorted({e.dest for e in effects if e.dest is not None}))
    extra = length - 1

    def run(core, thread):
        arch = thread.arch
        gprs = arch.gprs
        undo = [(d, gprs[d]) for d in dests]
        for effect in effects:
            effect(gprs)
        arch.pc = end_pc
        thread.work_remaining = extra
        thread._fused = FusedRun(start_pc, length, undo, effects)
        thread.instructions_executed += extra
        core.instructions_retired += extra
        return 1
    run.latency = 1
    return run


def _make_div(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    rd, rs, rt = (_gpr(operand) for operand in instruction.operands)
    from repro.hw.exceptions import ExceptionKind

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        gprs = arch.gprs
        if gprs[rt] == 0:
            core._raise_exception(thread, ExceptionKind.DIV_ZERO)
            return latency
        gprs[rd] = gprs[rs] // gprs[rt]
        return latency
    run.latency = latency
    return run


def _make_mul(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    rd, rs, rt = (_gpr(operand) for operand in instruction.operands)

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        gprs = arch.gprs
        gprs[rd] = gprs[rs] * gprs[rt]
        return latency
    run.latency = latency
    return run


def _make_ld(instruction: Instruction, next_pc: int, latency: int,
             program) -> Handler:
    rd = _gpr(instruction.operands[0])
    rs = _gpr(instruction.operands[1])
    offset = instruction.operands[2].value

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        gprs = arch.gprs
        gprs[rd] = core.memory.load(gprs[rs] + offset)
        return latency + core.costs.l1_hit_cycles
    run.latency = latency
    return run


def _make_st(instruction: Instruction, next_pc: int, latency: int,
             program) -> Handler:
    rs = _gpr(instruction.operands[0])
    rt = _gpr(instruction.operands[2])
    offset = instruction.operands[1].value

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        gprs = arch.gprs
        memory = core.memory
        memory.store(gprs[rs] + offset, gprs[rt], source=thread.mem_source)
        coherence = memory.watch_bus.coherence
        if coherence is not None:
            # writer-side directory charge: invalidating the sharers of
            # a watched line is not free (0 for untracked lines)
            return (latency + core.costs.l1_hit_cycles
                    + coherence.last_write_cycles)
        return latency + core.costs.l1_hit_cycles
    run.latency = latency
    return run


def _make_faa(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    rd = _gpr(instruction.operands[0])
    rs = _gpr(instruction.operands[1])
    delta = instruction.operands[2].value

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        gprs = arch.gprs
        memory = core.memory
        gprs[rd] = memory.fetch_add(gprs[rs], delta, source=thread.mem_source)
        coherence = memory.watch_bus.coherence
        if coherence is not None:
            return (latency + core.costs.l1_hit_cycles
                    + coherence.last_write_cycles)
        return latency + core.costs.l1_hit_cycles
    run.latency = latency
    return run


def _undefined_label(name: str, program_name: str, next_pc: int,
                     latency: int) -> Handler:
    """A branch to a label the program does not define."""
    def run(core, thread):
        thread.arch.pc = next_pc
        raise IsaError(f"undefined label {name!r} in {program_name!r}")
    run.latency = latency
    return run


def _make_jmp(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    target = _resolve_target(instruction.operands[0], program)
    if target is None:
        return _undefined_label(instruction.operands[0].name,
                                program.name, next_pc, latency)

    def run(core, thread):
        thread.arch.pc = target
        return latency
    run.latency = latency
    return run


def _make_branch(instruction: Instruction, next_pc: int, latency: int,
                 program) -> Handler:
    rs = _gpr(instruction.operands[0])
    rt = _gpr(instruction.operands[1])
    target = _resolve_target(instruction.operands[2], program)
    if target is None:
        return _undefined_label(instruction.operands[2].name,
                                program.name, next_pc, latency)
    op = instruction.op

    if op == "beq":
        def run(core, thread):
            arch = thread.arch
            gprs = arch.gprs
            arch.pc = target if gprs[rs] == gprs[rt] else next_pc
            return latency
    elif op == "bne":
        def run(core, thread):
            arch = thread.arch
            gprs = arch.gprs
            arch.pc = target if gprs[rs] != gprs[rt] else next_pc
            return latency
    elif op == "blt":
        def run(core, thread):
            arch = thread.arch
            gprs = arch.gprs
            arch.pc = target if gprs[rs] < gprs[rt] else next_pc
            return latency
    else:  # bge
        def run(core, thread):
            arch = thread.arch
            gprs = arch.gprs
            arch.pc = target if gprs[rs] >= gprs[rt] else next_pc
            return latency
    run.latency = latency
    return run


def _make_jal(instruction: Instruction, next_pc: int, latency: int,
              program) -> Handler:
    rd = _gpr(instruction.operands[0])
    target = _resolve_target(instruction.operands[1], program)
    if target is None:
        return _undefined_label(instruction.operands[1].name,
                                program.name, next_pc, latency)

    def run(core, thread):
        arch = thread.arch
        arch.gprs[rd] = next_pc   # link: the index after the jal
        arch.pc = target
        return latency
    run.latency = latency
    return run


def _make_jr(instruction: Instruction, next_pc: int, latency: int,
             program) -> Handler:
    rs = _gpr(instruction.operands[0])

    def run(core, thread):
        arch = thread.arch
        arch.pc = arch.gprs[rs]
        return latency
    run.latency = latency
    return run


def _make_halt(instruction: Instruction, next_pc: int, latency: int,
               program) -> Handler:
    def run(core, thread):
        thread.arch.pc = next_pc
        core._halt_thread(thread)
        return latency
    run.latency = latency
    return run


def _make_work(instruction: Instruction, next_pc: int, latency: int,
               program) -> Handler:
    operand = instruction.operands[0]
    if isinstance(operand, Reg):
        # a length passed as data: read when the instruction issues
        rs = _gpr(operand)

        def run(core, thread):
            arch = thread.arch
            arch.pc = next_pc
            thread.work_remaining = max(arch.gprs[rs] - 1, 0)
            thread._fused = None
            return latency
        run.latency = latency
        return run
    remaining = max(operand.value - 1, 0)

    def run(core, thread):
        # the first cycle issues now; the remainder occupy the thread's
        # issue slot on subsequent rounds (see HWCore._issue_one).
        # Re-arming work_remaining retires any stale fused-run undo
        # record: from here on a positive count means `work`.
        thread.arch.pc = next_pc
        thread.work_remaining = remaining
        thread._fused = None
        return latency
    run.latency = latency
    return run


def _make_monitor(instruction: Instruction, next_pc: int, latency: int,
                  program) -> Handler:
    rs = _gpr(instruction.operands[0])

    def run(core, thread):
        arch = thread.arch
        arch.pc = next_pc
        # plus the directory arm cost: joining the line's sharer set
        # (0 on the flat bus, the default)
        return latency + thread.monitor.arm(arch.gprs[rs])
    run.latency = latency
    return run


def _make_mwait(instruction: Instruction, next_pc: int, latency: int,
                program) -> Handler:
    def run(core, thread):
        thread.arch.pc = next_pc
        if thread.monitor.wait():
            thread.make_waiting()
        return latency
    run.latency = latency
    return run


#: the hot opcodes, each defined here and nowhere else; every other
#: opcode in OPS is an ``HWCore._op_*`` method reached via _generic
MAKERS: Dict[str, Callable[..., Handler]] = {
    **{op: _make_alu for op in FUSABLE_OPS},
    "mul": _make_mul,
    "div": _make_div,
    "ld": _make_ld,
    "st": _make_st,
    "faa": _make_faa,
    "jmp": _make_jmp,
    "beq": _make_branch,
    "bne": _make_branch,
    "blt": _make_branch,
    "bge": _make_branch,
    "jal": _make_jal,
    "jr": _make_jr,
    "halt": _make_halt,
    "work": _make_work,
    "monitor": _make_monitor,
    "mwait": _make_mwait,
}


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
def build_handler(instruction: Instruction, next_pc: int, program,
                  dispatch: Dict[str, Callable]) -> Handler:
    """Compile one instruction at index ``next_pc - 1``."""
    op = instruction.op
    latency = OPS[op].latency
    maker = MAKERS.get(op)
    if maker is None:
        return _generic(instruction.operands, next_pc, latency,
                        dispatch[op])
    return maker(instruction, next_pc, latency, program)


def decode_program(program, dispatch: Dict[str, Callable],
                   no_fuse: Optional[Container[int]] = None
                   ) -> DecodedProgram:
    """Compile ``program`` into a :class:`DecodedProgram`.

    ``dispatch`` is the core's cold-op table (``HWCore._DISPATCH``,
    passed in to avoid an isa -> hw import cycle) backing the generic
    handlers. ``no_fuse`` marks indices excluded from superinstruction
    fusion: every index for a traced core.
    """
    instructions = program.instructions
    count = len(instructions)
    handlers: List[Optional[Handler]] = [
        build_handler(instr, index + 1, program, dispatch)
        for index, instr in enumerate(instructions)
    ]
    handlers.append(None)   # the HALT sentinel: pc == len is implicit halt

    # superinstruction fusion: maximal runs (length >= 2) of fusable
    # ALU ops. The fused handler replaces the run-start slot only;
    # every interior index keeps its individual handler so dynamic
    # jumps into the middle of a run execute instruction-at-a-time.
    blocked = no_fuse or ()
    index = 0
    while index < count:
        effect = None if index in blocked \
            else _fusable(instructions[index])
        if effect is None:
            index += 1
            continue
        effects = [effect]
        scan = index + 1
        while scan < count and scan not in blocked:
            nxt = _fusable(instructions[scan])
            if nxt is None:
                break
            effects.append(nxt)
            scan += 1
        if len(effects) >= 2:
            handlers[index] = _make_fused(effects, index, len(effects))
        index = scan
    return DecodedProgram(handlers)
