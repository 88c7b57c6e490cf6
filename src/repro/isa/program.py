"""Programs: assembled instruction sequences with resolved labels."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import IsaError
from repro.isa.instructions import Instruction


class Program:
    """An immutable sequence of instructions plus its label map.

    The program counter is an instruction *index* (the behavioral model
    has no byte-level code layout); ``pc`` in :class:`ArchState` holds
    this index.
    """

    def __init__(self, instructions: List[Instruction],
                 labels: Optional[Dict[str, int]] = None,
                 name: str = "program"):
        self.instructions = list(instructions)
        self.labels = dict(labels or {})
        self.name = name
        #: lazily built handler chain (repro.isa.decode); keyed to the
        #: program, so every thread running it shares one decode
        self._decoded_cache = None
        for label, target in self.labels.items():
            if not 0 <= target <= len(self.instructions):
                raise IsaError(
                    f"label {label!r} points at {target}, program has "
                    f"{len(self.instructions)} instructions")

    def __len__(self) -> int:
        return len(self.instructions)

    def fetch(self, pc: int) -> Instruction:
        """Fetch by index; running off the end is an implicit halt."""
        if not 0 <= pc < len(self.instructions):
            raise IsaError(f"pc {pc} outside program {self.name!r}")
        return self.instructions[pc]

    def decoded(self, dispatch):
        """The pre-decoded handler chain (built once, then cached).

        ``dispatch`` is the core's cold-op table (``HWCore._DISPATCH``),
        backing the generic handlers without an isa -> hw import cycle.
        """
        cache = self._decoded_cache
        if cache is None:
            from repro.isa.decode import decode_program
            cache = self._decoded_cache = decode_program(self, dispatch)
        return cache

    def resolve(self, label: str) -> int:
        target = self.labels.get(label)
        if target is None:
            raise IsaError(f"undefined label {label!r} in {self.name!r}")
        return target

    def listing(self) -> str:
        """Human-readable disassembly with label annotations."""
        by_index: Dict[int, List[str]] = {}
        for label, target in self.labels.items():
            by_index.setdefault(target, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, []):
                lines.append(f"{label}:")
            lines.append(f"  {i:4d}  {instr}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Program {self.name} len={len(self.instructions)}>"
