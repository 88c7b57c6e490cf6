"""A multi-core chip: cores sharing one memory system and watch bus.

Ptids are core-local (the paper proposes per-core thread storage);
cross-core coordination happens through shared memory and the
generalized monitor, exactly as it would between cores on real hardware.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.hw.core import HWCore
from repro.hw.storage import ThreadStateStore
from repro.mem.memory import Memory


class Chip:
    """``cores`` HWCores over a shared :class:`Memory`."""

    def __init__(self, engine: Any, memory: Memory, cores: int = 1,
                 num_ptids: int = 64, smt_width: int = 2,
                 costs: Optional[CostModel] = None,
                 security_model: str = "tdt",
                 rf_bytes: int = 64 * 1024,
                 tracer: Optional[Any] = None):
        if cores < 1:
            raise ConfigError(f"chip needs at least one core, got {cores}")
        self.engine = engine
        self.memory = memory
        self.costs = costs or CostModel()
        self.migrations = 0
        self.cores: List[HWCore] = []
        for core_id in range(cores):
            storage = ThreadStateStore(self.costs, rf_bytes=rf_bytes)
            self.cores.append(HWCore(
                engine, memory, core_id=core_id, num_ptids=num_ptids,
                smt_width=smt_width, costs=self.costs, storage=storage,
                security_model=security_model, tracer=tracer))

    def core(self, core_id: int) -> HWCore:
        if not 0 <= core_id < len(self.cores):
            raise ConfigError(f"core {core_id} out of range")
        return self.cores[core_id]

    def migrate(self, from_core: int, from_ptid: int,
                to_core: int, to_ptid: int) -> int:
        """Move a disabled context to a ptid on another core.

        Section 4: the OS scheduler "will also manage the mapping of
        threads to cores in order to improve locality. Since starting
        and stopping threads incurs low overhead..." -- migration is a
        bulk state copy through the shared cache (L3-tier cost), far
        from the page-swap-grade event it is today, but not free either.

        Both ptids must be disabled (like rpull/rpush, state is only
        coherent then). The destination inherits program, architectural
        state, and priority; the source keeps its (now stale) copy,
        exactly like a hardware state transfer would. Returns the
        charged latency in cycles.
        """
        source_core = self.core(from_core)
        dest_core = self.core(to_core)
        if from_core == to_core and from_ptid == to_ptid:
            raise ConfigError("cannot migrate a ptid onto itself")
        source = source_core.thread(from_ptid)
        dest = dest_core.thread(to_ptid)
        from repro.hw.ptid import PtidState
        if source.state is not PtidState.DISABLED:
            raise ConfigError(
                f"migration source ptid {from_ptid} must be disabled")
        if dest.state is not PtidState.DISABLED:
            raise ConfigError(
                f"migration target ptid {to_ptid} must be disabled")
        dest.program = source.program
        dest._fused = None
        dest._decoded = dest_core._decode(source.program) \
            if source.program is not None else None
        dest.finished = source.finished
        dest.priority = source.priority
        dest_core.arbiter.note_priority()
        dest.arch.load_snapshot(source.arch.snapshot())
        dest.arch.vector_dirty = source.arch.vector_dirty
        # cross-core transfer traverses the shared cache: L3-tier cost,
        # charged against the destination's first issue
        latency = self.costs.hw_start_l3_cycles
        dest.busy_until = max(dest.busy_until, self.engine.now + latency)
        self.migrations += 1
        return latency

    def check(self) -> None:
        for core in self.cores:
            core.check()

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions_retired for core in self.cores)

    def total_register_file_bytes(self) -> int:
        """The Section 4 arithmetic: per-core RF budget times cores."""
        return sum(core.storage.rf_capacity * core.storage.context_bytes
                   for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Chip cores={len(self.cores)}>"
