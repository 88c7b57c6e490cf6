"""Two-pass text assembler.

Syntax, one instruction per line::

    ; comment (also '#')
    loop:               ; labels end with ':'
        movi r1, 10
        addi r1, r1, -1
        bne  r1, r0, loop
        monitor r2
        mwait
        rpull 3, r1, pc  ; vtid 3, local r1, remote register 'pc'
        halt

Operand parsing is driven by the opcode's spec: ``R`` operands must be
general registers (``r0``-``r15``), ``V`` vector registers, ``RI``
accepts a general register or an immediate, ``N`` is a symbolic
register name, ``L`` a label or absolute index. The register classes
are checked by :class:`Instruction` itself; the assembler only adds
the line number to its error. Immediates may be decimal,
negative, or ``0x`` hex, and may reference ``symbols`` passed by the
caller (e.g. buffer addresses allocated at build time)::

    assemble("movi r1, RX_TAIL", symbols={"RX_TAIL": 0x5000})
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import IsaError
from repro.isa.instructions import Imm, Instruction, Label, OPS, Reg, RegName
from repro.isa.program import Program

_REGISTER_RE = re.compile(r"^(r\d+|v\d+|pc|flags|edp|tdtr|priv)$")
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|\d+)$")


def assemble(source: str, name: str = "program",
             symbols: Optional[Dict[str, int]] = None) -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    symbols = symbols or {}
    lines = _clean(source)

    # pass 1: label indices
    labels: Dict[str, int] = {}
    instruction_lines: List[Tuple[int, str]] = []
    for line_no, text in lines:
        match = _LABEL_DEF_RE.match(text)
        if match:
            label = match.group(1)
            if label in labels:
                raise IsaError(f"line {line_no}: duplicate label {label!r}")
            labels[label] = len(instruction_lines)
        else:
            instruction_lines.append((line_no, text))

    # pass 2: instructions
    instructions: List[Instruction] = []
    for line_no, text in instruction_lines:
        instructions.append(_parse_instruction(line_no, text, labels, symbols))
    return Program(instructions, labels, name=name)


# ----------------------------------------------------------------------
def _clean(source: str) -> List[Tuple[int, str]]:
    out = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        text = re.split(r"[;#]", raw, maxsplit=1)[0].strip()
        if text:
            out.append((line_no, text))
    return out


def _parse_instruction(line_no: int, text: str, labels: Dict[str, int],
                       symbols: Dict[str, int]) -> Instruction:
    parts = text.split(None, 1)
    op = parts[0].lower()
    # 'and'/'or' are Python keywords; specs use trailing underscore
    if op in ("and", "or"):
        op += "_"
    spec = OPS.get(op)
    if spec is None:
        raise IsaError(f"line {line_no}: unknown opcode {parts[0]!r}")
    tokens = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
    if len(tokens) != len(spec.operands):
        raise IsaError(
            f"line {line_no}: {op} expects {len(spec.operands)} operands, "
            f"got {len(tokens)}")
    operands = []
    for token, kind in zip(tokens, spec.operands):
        operands.append(_parse_operand(line_no, op, token, kind, labels, symbols))
    # the instruction checks its operand kinds; the error gets the line
    try:
        return Instruction(op, tuple(operands))
    except IsaError as error:
        raise IsaError(f"line {line_no}: {error}") from None


def _parse_operand(line_no: int, op: str, token: str, kind: str,
                   labels: Dict[str, int], symbols: Dict[str, int]):
    if not token:
        raise IsaError(f"line {line_no}: empty operand in {op}")
    if kind in ("R", "V"):
        if _REGISTER_RE.match(token):
            return Reg(token)
        raise IsaError(f"line {line_no}: {op} needs a register, got {token!r}")
    if kind == "N":
        if _REGISTER_RE.match(token):
            return RegName(token)
        raise IsaError(f"line {line_no}: {op} needs a register name, got {token!r}")
    if kind == "I":
        value = _try_int(token, symbols)
        if value is None:
            raise IsaError(f"line {line_no}: {op} needs an immediate, got {token!r}")
        return Imm(value)
    if kind == "RI":
        if _REGISTER_RE.match(token):
            return Reg(token)
        value = _try_int(token, symbols)
        if value is None:
            raise IsaError(
                f"line {line_no}: {op} needs a register or immediate, got {token!r}")
        return Imm(value)
    if kind == "L":
        if token in labels:
            return Label(token)
        value = _try_int(token, symbols)
        if value is not None:
            return Imm(value)
        # forward reference to a label defined later is already handled
        # (labels collected in pass 1), so this really is undefined
        raise IsaError(f"line {line_no}: undefined branch target {token!r}")
    raise IsaError(f"line {line_no}: bad operand kind {kind!r}")  # pragma: no cover


def _try_int(token: str, symbols: Dict[str, int]) -> Optional[int]:
    if token in symbols:
        return int(symbols[token])
    if _INT_RE.match(token):
        return int(token, 0)
    return None
