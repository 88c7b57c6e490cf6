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


class AsmTemplate:
    """Parse a source once, instantiate it many times with late symbols.

    The hot loaders (the ISA cluster backend binds a fresh program to a
    slot for every request) emit the same source text with only a few
    immediates changed -- re-running the regex parser per request is
    pure waste. A template parses the source a single time; tokens
    listed in ``dynamic`` become *holes* (immediate operands bound at
    :meth:`instantiate` time), every other instruction is parsed -- and
    shared -- once. Instantiated programs also share the template's
    pre-decoded handler chain (see :meth:`decode_instance`): only the
    hole instructions are re-compiled per instantiation.

        template = AsmTemplate("work N\\nhalt", dynamic=("N",))
        program = template.instantiate({"N": 400})
    """

    def __init__(self, source: str, name: str = "template",
                 symbols: Optional[Dict[str, int]] = None,
                 dynamic: Tuple[str, ...] = ()):
        self.name = name
        self._dynamic = tuple(dynamic)
        dynamic_set = set(dynamic)
        symbols = symbols or {}
        lines = _clean(source)
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
        self._labels = labels
        #: per instruction: either a finished (shared) Instruction, or a
        #: recipe (op, operands-with-None-holes, [(position, token)])
        self._entries: List[object] = []
        self._holes: List[int] = []
        for index, (line_no, text) in enumerate(instruction_lines):
            parts = text.split(None, 1)
            op = parts[0].lower()
            if op in ("and", "or"):
                op += "_"
            spec = OPS.get(op)
            if spec is None:
                raise IsaError(f"line {line_no}: unknown opcode {parts[0]!r}")
            tokens = [t.strip() for t in parts[1].split(",")] \
                if len(parts) > 1 else []
            if len(tokens) != len(spec.operands):
                raise IsaError(
                    f"line {line_no}: {op} expects {len(spec.operands)} "
                    f"operands, got {len(tokens)}")
            hole_slots: List[Tuple[int, str]] = []
            operands: List[object] = []
            for position, (token, kind) in enumerate(zip(tokens, spec.operands)):
                if token in dynamic_set:
                    if kind not in ("I", "RI", "L"):
                        raise IsaError(
                            f"line {line_no}: dynamic symbol {token!r} must "
                            f"fill an immediate operand, not kind {kind!r}")
                    operands.append(None)
                    hole_slots.append((position, token))
                else:
                    operands.append(_parse_operand(
                        line_no, op, token, kind, labels, symbols))
            # holes are checked with a placeholder immediate, so a bad
            # register fails here rather than at instantiate time
            checked = _instruction(line_no, op, [
                Imm(0) if operand is None else operand
                for operand in operands])
            if hole_slots:
                self._entries.append((op, operands, hole_slots))
                self._holes.append(index)
            else:
                self._entries.append(checked)
        self._hole_set = frozenset(self._holes)
        # decode sharing (filled on first decode_instance call)
        self._proto_decoded = None
        self._proto_dispatch = None

    def instantiate(self, values: Dict[str, int],
                    name: Optional[str] = None) -> Program:
        """Bind the dynamic symbols and return a fresh :class:`Program`."""
        instructions: List[Instruction] = []
        for entry in self._entries:
            if isinstance(entry, Instruction):
                instructions.append(entry)
                continue
            op, operands, hole_slots = entry
            bound = list(operands)
            for position, token in hole_slots:
                bound[position] = Imm(int(values[token]))
            instructions.append(Instruction(op, tuple(bound)))
        program = Program(instructions, self._labels,
                          name=name or self.name)
        program._decode_hint = (self, self._hole_set)
        return program

    def rebind(self, program: Program, values: Dict[str, int],
               name: Optional[str] = None) -> Program:
        """Re-point an instantiated program's holes at new values, in place.

        The slot loaders run the same template shape back to back with
        only the work immediates changing; rebinding swaps the hole
        instructions (and, when a handler chain has been built, their
        decoded handlers) instead of constructing a fresh program and
        re-deriving the chain per request. Holes are excluded from
        superinstruction fusion, so the chain's fused structure is
        untouched by a rebind. Only programs this template instantiated
        may be rebound.
        """
        instructions = program.instructions
        decoded = program._decoded_cache
        if decoded is not None:
            from repro.isa.decode import build_handler
        for index in self._holes:
            op, operands, hole_slots = self._entries[index]
            bound = list(operands)
            for position, token in hole_slots:
                bound[position] = Imm(int(values[token]))
            instructions[index] = Instruction(op, tuple(bound))
            if decoded is not None:
                decoded.handlers[index] = build_handler(
                    instructions[index], index + 1, program,
                    self._proto_dispatch)
        if name is not None:
            program.name = name
        return program

    def decode_instance(self, program: Program, holes, dispatch):
        """Decoded handler chain for an instantiated program.

        Non-hole handlers are compiled once (against a zero-filled
        proto instantiation, with fusion blocked across holes) and
        shared; only the hole instructions are re-compiled with the
        instance's immediates.
        """
        from repro.isa.decode import (DecodedProgram, build_handler,
                                      decode_program)
        proto = self._proto_decoded
        if proto is None or self._proto_dispatch is not dispatch:
            proto_program = self.instantiate(
                {token: 0 for token in self._dynamic}, name=self.name)
            proto = decode_program(proto_program, dispatch,
                                   no_fuse=self._hole_set)
            self._proto_decoded = proto
            self._proto_dispatch = dispatch
        handlers = list(proto.handlers)
        for index in holes:
            handlers[index] = build_handler(
                program.instructions[index], index + 1, program, dispatch)
        return DecodedProgram(handlers)


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
    return _instruction(line_no, op, operands)


def _instruction(line_no: int, op: str, operands) -> Instruction:
    """Build the instruction; its operand-kind check gets the line."""
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
