"""An NVMe-flavored SSD: submission/completion queue pairs.

Section 1 motivates the proposal with "systems with modern SSDs and
NICs" where per-event context switches dominate. The model:

1. Software writes a submission entry and stores the SQ tail (the
   doorbell -- an ordinary memory write the device watches).
2. After the modeled access latency the SSD DMAs the data (reads are
   the interesting direction) and writes a completion entry, then
   increments the CQ tail word -- the address a completion thread
   monitors in the proposed world, or the trigger for a legacy IRQ in
   the baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.mem.dma import DmaEngine
from repro.mem.memory import WORD_BYTES, Memory

#: Words per submission entry: [opcode, lba, dest_addr, length_words].
SQ_ENTRY_WORDS = 4
#: Words per completion entry: [command_id + 1, status].
CQ_ENTRY_WORDS = 2

OP_READ = 1
OP_WRITE = 2


class Ssd:
    """One SSD with a single SQ/CQ pair."""

    def __init__(self, engine, memory: Memory, dma: DmaEngine,
                 name: str = "ssd0", queue_slots: int = 64,
                 read_latency_cycles: int = 30_000,
                 write_latency_cycles: int = 60_000,
                 translator=None, vector: Optional[int] = None,
                 legacy_irq: Optional[Callable[[int], None]] = None):
        if queue_slots < 1:
            raise ConfigError(f"need at least one queue slot, got {queue_slots}")
        self.engine = engine
        self.memory = memory
        self.dma = dma
        self.name = name
        self.queue_slots = queue_slots
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.translator = translator
        self.vector = vector
        self.legacy_irq = legacy_irq
        self.sq = memory.alloc(f"{name}.sq",
                               queue_slots * SQ_ENTRY_WORDS * WORD_BYTES)
        self.cq = memory.alloc(f"{name}.cq",
                               queue_slots * CQ_ENTRY_WORDS * WORD_BYTES)
        self.sq_tail_region = memory.alloc(f"{name}.sqtail", WORD_BYTES)
        self.cq_tail_region = memory.alloc(f"{name}.cqtail", WORD_BYTES)
        self.commands_completed = 0
        self.submit_time: Dict[int, int] = {}
        self.complete_time: Dict[int, int] = {}
        self._consumed = 0
        memory.watch_bus.subscribe(self.sq_tail_addr, self._drain_sq,
                                   owner=f"{name}.sq")

    # ------------------------------------------------------------------
    @property
    def sq_tail_addr(self) -> int:
        return self.sq_tail_region.base

    @property
    def cq_tail_addr(self) -> int:
        return self.cq_tail_region.base

    def sq_entry_addr(self, index: int) -> int:
        return self.sq.base + (index % self.queue_slots) * SQ_ENTRY_WORDS * WORD_BYTES

    def cq_entry_addr(self, index: int) -> int:
        return self.cq.base + (index % self.queue_slots) * CQ_ENTRY_WORDS * WORD_BYTES

    # ------------------------------------------------------------------
    # software side: submit a command (behavioral convenience; ISA
    # guests write the same words themselves)
    # ------------------------------------------------------------------
    def submit(self, opcode: int, lba: int, dest_addr: int,
               length_words: int, source: str = "cpu") -> int:
        """Write one submission entry and ring the doorbell.

        Returns the command id (the free-running SQ index).
        """
        if opcode not in (OP_READ, OP_WRITE):
            raise ConfigError(f"bad opcode {opcode}")
        if length_words < 1:
            raise ConfigError("length must be at least one word")
        tail = self.memory.load(self.sq_tail_addr)
        entry = self.sq_entry_addr(tail)
        self.memory.store_words(
            entry, [opcode, lba, dest_addr, length_words], source=source)
        self.memory.store(self.sq_tail_addr, tail + 1, source=source)
        return tail

    # ------------------------------------------------------------------
    # device side
    # ------------------------------------------------------------------
    def _drain_sq(self, _info: dict) -> None:
        tail = self.memory.load(self.sq_tail_addr)
        while self._consumed < tail:
            command_id = self._consumed
            self._consumed += 1
            entry = self.sq_entry_addr(command_id)
            opcode, lba, dest_addr, length = self.memory.load_words(
                entry, SQ_ENTRY_WORDS)
            self.submit_time[command_id] = self.engine.now
            latency = (self.read_latency_cycles if opcode == OP_READ
                       else self.write_latency_cycles)
            self.engine.after(latency, self._access_done,
                              command_id, opcode, lba, dest_addr, length)

    def _access_done(self, command_id: int, opcode: int, lba: int,
                     dest_addr: int, length: int) -> None:
        if opcode == OP_READ:
            # deterministic "media" contents: word i of block lba is lba+i
            data = [lba + i for i in range(length)]
            self.dma.write(dest_addr, data,
                           on_complete=lambda: self._complete(command_id),
                           source=f"dma:{self.name}")
        else:
            self._complete(command_id)

    def _complete(self, command_id: int) -> None:
        tag = f"dma:{self.name}"
        entry = self.cq_entry_addr(command_id)
        self.memory.store_words(entry, [command_id + 1, 0], source=tag)
        self.commands_completed += 1
        self.complete_time[command_id] = self.engine.now
        # the CQ tail word a completion thread monitors
        self.memory.store(self.cq_tail_addr, self.commands_completed,
                          source=tag)
        if self.translator is not None and self.vector is not None:
            self.translator.raise_irq(self.vector)
        elif self.legacy_irq is not None:
            self.legacy_irq(command_id)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ssd {self.name} completed={self.commands_completed}>"
