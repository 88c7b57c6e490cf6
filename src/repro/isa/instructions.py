"""Instruction and operand definitions.

Operands are typed wrappers so the interpreter can dispatch without
string-sniffing:

- :class:`Reg` -- a general-purpose or vector register of the executing
  thread
- :class:`RegName` -- a register *name* operand (for rpull/rpush/csr,
  which address registers symbolically, including ``pc`` and ``edp``)
- :class:`Imm` -- immediate integer
- :class:`Label` -- branch target, resolved to an instruction index by
  the assembler

Every operand is checked against its opcode's operand kind once, when
the :class:`Instruction` is built. A ``Reg`` in an ``R`` or ``RI`` slot
names a GPR (``r0``-``r15``) and one in a ``V`` slot a vector register,
so control registers (``pc``, ``flags``, ``edp``, and the
supervisor-only ``tdtr`` and ``priv``) are reachable only through the
privilege-checked ``N`` operands of ``csrr``/``csrw``/``rpull``/
``rpush``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from repro.arch.registers import RegisterClass, register_specs
from repro.errors import IsaError


@dataclass(frozen=True)
class Reg:
    """A register operand read/written via the executing thread."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RegName:
    """A symbolic register-name operand (rpull/rpush/csrr/csrw)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate integer operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Label:
    """A code label; the assembler resolves it to an instruction index."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Reg, RegName, Imm, Label]

#: operand-kind codes used in OP specs, and what each accepts
OPERAND_KINDS = {
    "R": "a general register r0-r15",
    "V": "a vector register v0-v15",
    "RI": "a general register or an immediate",
    "I": "an immediate",
    "N": "the name of an architectural register",
    "L": "a label or an instruction index",
}

_SPECS = register_specs()
GPR_NAMES = frozenset(name for name, spec in _SPECS.items()
                      if spec.reg_class is RegisterClass.GENERAL)
VECTOR_NAMES = frozenset(name for name, spec in _SPECS.items()
                         if spec.reg_class is RegisterClass.VECTOR)
REGISTER_NAMES = frozenset(_SPECS)


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    name: str
    operands: Tuple[str, ...]
    latency: int = 1
    privileged: bool = False
    description: str = ""


def _spec(name: str, operands: str, latency: int = 1, privileged: bool = False,
          description: str = "") -> OpSpec:
    kinds = tuple(operands.split()) if operands else ()
    for kind in kinds:
        if kind not in OPERAND_KINDS:
            raise IsaError(f"bad operand kind {kind!r} in spec for {name}")
    if latency < 1:
        raise IsaError(f"{name}: latency must be >= 1, got {latency}")
    return OpSpec(name, kinds, latency, privileged, description)


#: The opcode table. Latencies are *base* issue latencies; memory and
#: thread-management costs are layered on by the core using CostModel.
OPS: Dict[str, OpSpec] = {spec.name: spec for spec in [
    # --- base ALU -----------------------------------------------------
    _spec("nop", "", description="do nothing"),
    _spec("movi", "R I", description="rd <- imm"),
    _spec("mov", "R R", description="rd <- rs"),
    _spec("add", "R R R", description="rd <- rs + rt"),
    _spec("addi", "R R I", description="rd <- rs + imm"),
    _spec("sub", "R R R", description="rd <- rs - rt"),
    _spec("mul", "R R R", latency=3, description="rd <- rs * rt"),
    _spec("div", "R R R", latency=12, description="rd <- rs / rt; /0 faults"),
    _spec("and_", "R R R", description="rd <- rs & rt"),
    _spec("or_", "R R R", description="rd <- rs | rt"),
    _spec("xor", "R R R", description="rd <- rs ^ rt"),
    _spec("shl", "R R I", description="rd <- rs << imm"),
    _spec("shr", "R R I", description="rd <- rs >> imm"),
    # --- memory -------------------------------------------------------
    _spec("ld", "R R I", latency=2, description="rd <- mem[rs + imm]"),
    _spec("st", "R I R", latency=2, description="mem[rs + imm] <- rt"),
    _spec("faa", "R R I", latency=4,
          description="rd <- atomically (mem[rs] += imm)"),
    # --- control flow ---------------------------------------------------
    _spec("jmp", "L", description="pc <- label"),
    _spec("beq", "R R L", description="if rs == rt: pc <- label"),
    _spec("bne", "R R L", description="if rs != rt: pc <- label"),
    _spec("blt", "R R L", description="if rs < rt: pc <- label"),
    _spec("bge", "R R L", description="if rs >= rt: pc <- label"),
    _spec("jal", "R L", description="rd <- return pc; pc <- label"),
    _spec("jr", "R", description="pc <- rs"),
    _spec("halt", "", description="disable this ptid, exit status in r0"),
    # --- modeling pseudo-ops ---------------------------------------------
    _spec("work", "RI",
          description="consume imm (or rs, read at issue) cycles of "
                      "computation; below 1 costs one cycle"),
    _spec("fwork", "I",
          description="consume imm cycles using FP/vector units "
                      "(dirties vector state: 272B -> 784B footprint)"),
    _spec("vmovi", "V I", description="vector reg <- imm (dirties FP state)"),
    _spec("vadd", "V V V", description="vector add (dirties FP state)"),
    # --- proposed extensions (Section 3.1) -----------------------------
    _spec("monitor", "R", latency=2,
          description="arm a watch on the line holding the address in rs"),
    _spec("mwait", "", latency=1,
          description="block until a watched write; falls through if one "
                      "arrived since the last arm (no lost wakeups)"),
    _spec("start", "RI",
          description="enable the ptid mapped to vtid (TDT-checked)"),
    _spec("stop", "RI",
          description="disable the ptid mapped to vtid (TDT-checked)"),
    _spec("rpull", "RI R N",
          description="local-reg <- remote register of disabled ptid(vtid)"),
    _spec("rpush", "RI N R",
          description="remote register of disabled ptid(vtid) <- local-reg"),
    _spec("invtid", "RI RI", latency=2,
          description="invalidate cached TDT entry remote-vtid of vtid"),
    # --- exceptions & security ------------------------------------------
    _spec("trap", "I", latency=3,
          description="write an exception descriptor (kind=syscall, "
                      "code=imm) and disable this ptid"),
    _spec("privop", "I", latency=2, privileged=True,
          description="privileged op (wrmsr-like); from user mode writes "
                      "a privilege-fault descriptor and disables the ptid"),
    _spec("csrr", "R N", description="rd <- own control register"),
    _spec("csrw", "N R",
          description="own control register <- rs; tdtr/priv require "
                      "supervisor mode"),
    _spec("setkey", "R", latency=2,
          description="set this ptid's secret key (key security model)"),
]}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    op: str
    operands: Tuple[Operand, ...] = field(default=())

    def __post_init__(self) -> None:
        spec = OPS.get(self.op)
        if spec is None:
            raise IsaError(f"unknown opcode {self.op!r}")
        if len(self.operands) != len(spec.operands):
            raise IsaError(
                f"{self.op} expects {len(spec.operands)} operands, "
                f"got {len(self.operands)}")
        for operand, kind in zip(self.operands, spec.operands):
            if not _operand_matches(operand, kind):
                raise IsaError(
                    f"{self.op}: operand {operand} is not "
                    f"{OPERAND_KINDS[kind]}")

    @property
    def spec(self) -> OpSpec:
        return OPS[self.op]

    def __str__(self) -> str:
        if not self.operands:
            return self.op
        return f"{self.op} " + ", ".join(str(o) for o in self.operands)


def _operand_matches(operand: Operand, kind: str) -> bool:
    if kind == "R":
        return isinstance(operand, Reg) and operand.name in GPR_NAMES
    if kind == "V":
        return isinstance(operand, Reg) and operand.name in VECTOR_NAMES
    if kind == "I":
        return isinstance(operand, Imm)
    if kind == "RI":
        return isinstance(operand, Imm) or (
            isinstance(operand, Reg) and operand.name in GPR_NAMES)
    if kind == "N":
        return isinstance(operand, RegName) and operand.name in REGISTER_NAMES
    if kind == "L":
        return isinstance(operand, (Label, Imm))
    return False
