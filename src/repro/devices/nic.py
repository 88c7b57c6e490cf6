"""The network interface: RX/TX descriptor rings with DMA doorbells.

Paper, Section 3.1: "a network thread can wait on the RX queue tail
until packet arrival"; Section 4: monitoring must cover "addresses
updated by a DMA engine when a new packet arrives in a network
interface".

The RX path is modeled faithfully at ring granularity:

1. A packet "arrives" (per the configured arrival process).
2. The NIC DMAs the payload into the slot's buffer.
3. When the transfer lands it writes the slot descriptor (length word)
   and then increments the *tail counter word* -- the memory write the
   paper's network thread monitors.
4. Optionally it raises an interrupt vector, which an
   :class:`~repro.devices.msix.MsixTranslator` either translates to a
   second memory write or hands to a legacy IDT callback (the baseline).

The consumer advances a *head counter word* as it frees slots; the NIC
drops packets when the ring is full, like real hardware.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Optional

from repro.errors import ConfigError
from repro.mem.dma import DmaEngine
from repro.mem.memory import WORD_BYTES, Memory
from repro.workloads.arrivals import ArrivalProcess

#: Words per RX descriptor: [length, payload_addr].
DESC_WORDS = 2


class RxRing:
    """Receive ring layout inside simulated memory.

    ``tail_addr`` is the producer counter (written by the NIC);
    ``head_addr`` the consumer counter (written by software). Both are
    free-running; slot = counter % slots.
    """

    def __init__(self, memory: Memory, name: str, slots: int,
                 payload_words: int = 8):
        if slots < 1:
            raise ConfigError(f"ring needs at least one slot, got {slots}")
        if payload_words < 1:
            raise ConfigError("payload must be at least one word")
        self.memory = memory
        self.name = name
        self.slots = slots
        self.payload_words = payload_words
        self.desc = memory.alloc(f"{name}.desc", slots * DESC_WORDS * WORD_BYTES)
        self.buffers = memory.alloc(f"{name}.buf",
                                    slots * payload_words * WORD_BYTES)
        # Tail and head live on separate cache lines so a monitor on the
        # tail is not spuriously woken by the consumer's head updates.
        self.tail_region = memory.alloc(f"{name}.tail", WORD_BYTES)
        self.head_region = memory.alloc(f"{name}.head", WORD_BYTES)

    @property
    def tail_addr(self) -> int:
        return self.tail_region.base

    @property
    def head_addr(self) -> int:
        return self.head_region.base

    def slot_desc_addr(self, index: int) -> int:
        return self.desc.base + (index % self.slots) * DESC_WORDS * WORD_BYTES

    def slot_buffer_addr(self, index: int) -> int:
        return (self.buffers.base
                + (index % self.slots) * self.payload_words * WORD_BYTES)

    # ------------------------------------------------------------------
    # software (consumer) side
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Packets produced but not yet consumed."""
        return (self.memory.load(self.tail_addr)
                - self.memory.load(self.head_addr))

    def consume(self, source: str = "cpu") -> Optional[Dict[str, int]]:
        """Pop one packet (head slot); None when the ring is empty.

        Behavioral-consumer convenience; ISA-level guests do the same
        loads/stores themselves.
        """
        head = self.memory.load(self.head_addr)
        tail = self.memory.load(self.tail_addr)
        if head >= tail:
            return None
        desc_addr = self.slot_desc_addr(head)
        length = self.memory.load(desc_addr)
        payload_addr = self.memory.load(desc_addr + WORD_BYTES)
        self.memory.store(self.head_addr, head + 1, source=source)
        return {"seq": head, "length": length, "payload_addr": payload_addr}


class TxRing:
    """Transmit ring: software writes descriptors, rings the doorbell."""

    def __init__(self, memory: Memory, name: str, slots: int):
        if slots < 1:
            raise ConfigError(f"ring needs at least one slot, got {slots}")
        self.memory = memory
        self.name = name
        self.slots = slots
        self.desc = memory.alloc(f"{name}.desc", slots * DESC_WORDS * WORD_BYTES)
        self.doorbell_region = memory.alloc(f"{name}.doorbell", WORD_BYTES)
        self.completion_region = memory.alloc(f"{name}.comp", WORD_BYTES)

    @property
    def doorbell_addr(self) -> int:
        return self.doorbell_region.base

    @property
    def completion_addr(self) -> int:
        return self.completion_region.base


class Nic:
    """A NIC fed by an arrival process.

    One instance can serve both worlds: arm ``vector`` + a translator
    for memory-write notification, or pass ``legacy_irq`` for the
    baseline IDT path. The packet stream is identical either way, which
    is what makes the E02/E03 comparisons paired.
    """

    def __init__(self, engine, memory: Memory, dma: DmaEngine,
                 name: str = "nic0", rx_slots: int = 256,
                 payload_words: int = 8,
                 wire_latency_cycles: int = 600,
                 translator=None, vector: Optional[int] = None,
                 legacy_irq: Optional[Callable[[int], None]] = None,
                 dispatch: Optional[Callable[[int], None]] = None):
        self.engine = engine
        self.memory = memory
        self.dma = dma
        self.name = name
        self.rx = RxRing(memory, f"{name}.rx", rx_slots, payload_words)
        self.tx = TxRing(memory, f"{name}.tx", rx_slots)
        self.wire_latency_cycles = wire_latency_cycles
        self.translator = translator
        self.vector = vector
        self.legacy_irq = legacy_irq
        # smartNIC offload (Section 4: "associating hardware threads
        # with I/O events could also be transparently offloaded to
        # peripheral devices such as smartNICs"): the device starts the
        # handler ptid itself, skipping even the monitor wakeup.
        self.dispatch = dispatch
        if translator is not None and vector is not None:
            # tail writes already wake tail monitors; the vector gives
            # baseline kernels their interrupt and hw-thread kernels an
            # alternative (coalesced-count) wakeup word
            pass
        self.packets_generated = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self._rx_produced = 0  # device-side cursor: slots claimed at
        #                        arrival time (the memory tail word only
        #                        advances when the DMA lands, so in-flight
        #                        packets must not re-read it)
        self.tx_completed = 0
        self.delivery_time: Dict[int, int] = {}   # seq -> cycles landed
        self.generated_time: Dict[int, int] = {}  # seq -> cycles arrived on wire
        self._stop = False
        # observability: harvested at snapshot time only (no per-packet
        # cost beyond the counters the NIC keeps anyway)
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            session.register_source("dev.nic", self.fill_metrics)
        memory.watch_bus.subscribe(self.tx.doorbell_addr,
                                   self._on_tx_doorbell, owner=f"{name}.tx")

    def fill_metrics(self, registry, prefix: str) -> None:
        """Snapshot-time metric harvest (see repro.obs.snapshot)."""
        registry.inc(f"{prefix}.packets_generated", self.packets_generated)
        registry.inc(f"{prefix}.packets_delivered", self.packets_delivered)
        registry.inc(f"{prefix}.packets_dropped", self.packets_dropped)
        registry.inc(f"{prefix}.tx_completed", self.tx_completed)

    # ------------------------------------------------------------------
    # RX: packet generation
    # ------------------------------------------------------------------
    def start_rx(self, arrivals: ArrivalProcess, rng: random.Random,
                 max_packets: Optional[int] = None) -> None:
        """Begin delivering packets per ``arrivals`` until stopped."""
        gaps = arrivals.gaps(rng)
        self._stop = False
        self._schedule_next(gaps, max_packets)

    def stop_rx(self) -> None:
        self._stop = True

    def _schedule_next(self, gaps: Iterator[float],
                       remaining: Optional[int]) -> None:
        if self._stop or (remaining is not None and remaining <= 0):
            return
        gap = max(1, int(round(next(gaps))))
        self.engine.after(gap, self._arrive, gaps,
                          None if remaining is None else remaining - 1)

    def _arrive(self, gaps: Iterator[float],
                remaining: Optional[int]) -> None:
        if not self._stop:
            self._deliver_packet()
        self._schedule_next(gaps, remaining)

    def _deliver_packet(self) -> None:
        seq = self.packets_generated
        self.packets_generated += 1
        head = self.memory.load(self.rx.head_addr)
        if self._rx_produced - head >= self.rx.slots:
            self.packets_dropped += 1
            return
        tail = self._rx_produced
        self._rx_produced += 1
        self.generated_time[seq] = self.engine.now
        payload_addr = self.rx.slot_buffer_addr(tail)
        payload = [seq] * self.rx.payload_words
        # payload DMA first; descriptor + tail land when it completes,
        # so a woken consumer always sees complete data
        self.dma.write(payload_addr, payload,
                       on_complete=lambda: self._land(seq, tail, payload_addr),
                       source=f"dma:{self.name}")

    def _land(self, seq: int, tail: int, payload_addr: int) -> None:
        desc_addr = self.rx.slot_desc_addr(tail)
        tag = f"dma:{self.name}"
        self.memory.store(desc_addr, self.rx.payload_words * WORD_BYTES,
                          source=tag)
        self.memory.store(desc_addr + WORD_BYTES, payload_addr, source=tag)
        # the write the paper's network thread monitors
        self.memory.store(self.rx.tail_addr, tail + 1, source=tag)
        self.packets_delivered += 1
        self.delivery_time[seq] = self.engine.now
        if self.dispatch is not None:
            self.dispatch(seq)
        elif self.translator is not None and self.vector is not None:
            self.translator.raise_irq(self.vector)
        elif self.legacy_irq is not None:
            self.legacy_irq(seq)

    # ------------------------------------------------------------------
    # TX: doorbell consumption
    # ------------------------------------------------------------------
    def _on_tx_doorbell(self, _info: dict) -> None:
        self.engine.after(self.wire_latency_cycles, self._tx_complete)

    def _tx_complete(self) -> None:
        self.tx_completed += 1
        self.memory.store(self.tx.completion_addr, self.tx_completed,
                          source=f"dma:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Nic {self.name} delivered={self.packets_delivered}"
                f" dropped={self.packets_dropped}>")
