"""The thread-state storage hierarchy.

Paper, Section 4 ("Storage for Thread State"): a small number of
contexts live in large register files (start cost ~ pipeline depth,
~20 cycles); more spill to the private L2 and shared L3 ("a fraction of
a 512KB private L2 cache can store the state of tens of threads, while
a few MB of an L3 cache can support hundreds"), with bulk-transfer
costs of 10-50 cycles. "Combining these three options can support
hundreds to thousands of threads per core."

The store tracks which tier holds each ptid's context, promotes a
context to the register file when the ptid starts (evicting the
least-recently-used idle context), and reports the start latency for
the tier the context came from. Optional pinning models "selecting
which threads are stored closer to the core based on criticality".
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional

from repro.arch.costs import CostModel
from repro.arch.registers import register_file_capacity, state_bytes
from repro.errors import ConfigError
from repro.obs.timeline import ThreadState


class StorageTier(str, enum.Enum):
    """Where a context currently lives."""

    RF = "rf"
    L2 = "l2"
    L3 = "l3"


class ThreadStateStore:
    """Tiered context storage for one core.

    Capacities default to the paper's arithmetic: a 64 KiB register
    file holds 83 full (784 B) contexts; an L2 slice "tens", the L3
    effectively unbounded ("hundreds").
    """

    def __init__(self, costs: Optional[CostModel] = None,
                 rf_bytes: int = 64 * 1024,
                 l2_slots: int = 48,
                 with_vector: bool = True):
        self.costs = costs or CostModel()
        self.rf_capacity = register_file_capacity(rf_bytes, with_vector)
        if self.rf_capacity < 1:
            raise ConfigError(f"register file of {rf_bytes}B holds no contexts")
        self.l2_capacity = l2_slots
        self.context_bytes = state_bytes(with_vector)
        self._tier: Dict[int, StorageTier] = {}
        self._last_use: Dict[int, int] = {}
        self._pinned: set = set()
        self._use_counter = 0
        # statistics
        self.promotions = 0
        self.demotions = 0
        self.starts_by_tier = {tier: 0 for tier in StorageTier}
        # observability (attach_obs; None on bare stores built by tests
        # and the queueing-only experiments)
        self._timeline = None
        self._obs_core_id = 0
        self._obs_engine = None

    def attach_obs(self, timeline, core_id: int, engine) -> None:
        """Record tier moves on an observability timeline (set by the
        owning core's ``attach_obs``)."""
        self._timeline = timeline
        self._obs_core_id = core_id
        self._obs_engine = engine

    # ------------------------------------------------------------------
    def register(self, ptid: int) -> None:
        """A new context; placed in the lowest tier with space."""
        if ptid in self._tier:
            raise ConfigError(f"ptid {ptid} already registered")
        if self._count(StorageTier.RF) < self.rf_capacity:
            self._tier[ptid] = StorageTier.RF
        elif self._count(StorageTier.L2) < self.l2_capacity:
            self._tier[ptid] = StorageTier.L2
        else:
            self._tier[ptid] = StorageTier.L3
        self._touch(ptid)

    def tier_of(self, ptid: int) -> StorageTier:
        tier = self._tier.get(ptid)
        if tier is None:
            raise ConfigError(f"ptid {ptid} not registered with the store")
        return tier

    def pin(self, ptid: int) -> None:
        """Pin a critical context in the register file.

        Models the paper's criticality-based placement; pinned contexts
        are never chosen as eviction victims.
        """
        self.tier_of(ptid)  # existence check
        self._pinned.add(ptid)
        self._promote(ptid)

    def unpin(self, ptid: int) -> None:
        self._pinned.discard(ptid)

    # ------------------------------------------------------------------
    def start_latency(self, ptid: int,
                      evictable: Optional[Iterable[int]] = None) -> int:
        """Charge for starting ``ptid`` and promote its context to RF.

        ``evictable`` yields the ptids whose contexts may be demoted to
        make room (the core passes a generator of its currently idle
        ptids); it is read only when the context sits outside the
        register file. Returns the start latency in cycles for the tier
        the context came from.
        """
        tier = self.tier_of(ptid)
        self.starts_by_tier[tier] += 1
        latency = self.costs.hw_start_cycles(tier.value)
        if tier is not StorageTier.RF:
            self._make_room(evictable or [])
            self._tier[ptid] = StorageTier.RF
            self.promotions += 1
            if self._timeline is not None:
                self._timeline.instant(self._obs_core_id, ptid,
                                       f"promote-{tier.value}",
                                       self._obs_engine.now)
        self._touch(ptid)
        return latency

    def touch(self, ptid: int) -> None:
        """Record recency (called when the ptid issues instructions)."""
        self._touch(ptid)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _promote(self, ptid: int) -> None:
        if self._tier[ptid] is not StorageTier.RF:
            self._make_room([p for p in self._tier if p != ptid])
            self._tier[ptid] = StorageTier.RF
            self.promotions += 1
        self._touch(ptid)

    def _make_room(self, evictable: Iterable[int]) -> None:
        if self._count(StorageTier.RF) < self.rf_capacity:
            return
        victims = [p for p in evictable
                   if self._tier.get(p) is StorageTier.RF and p not in self._pinned]
        if not victims:
            raise ConfigError(
                "register file full and no evictable context; "
                "increase rf_bytes or mark threads idle")
        victim = min(victims, key=lambda p: self._last_use.get(p, 0))
        if self._count(StorageTier.L2) < self.l2_capacity:
            self._tier[victim] = StorageTier.L2
        else:
            self._tier[victim] = StorageTier.L3
        self.demotions += 1
        if self._timeline is not None:
            # the victim's context left the register file: mark the
            # demotion and flip its (idle) span to the spilled state
            now = self._obs_engine.now
            tier = self._tier[victim].value
            self._timeline.instant(self._obs_core_id, victim,
                                   f"demote-{tier}", now)
            self._timeline.transition(self._obs_core_id, victim,
                                      ThreadState.SPILLED, now)

    def _count(self, tier: StorageTier) -> int:
        return sum(1 for t in self._tier.values() if t is tier)

    def _touch(self, ptid: int) -> None:
        self._use_counter += 1
        self._last_use[ptid] = self._use_counter

    # ------------------------------------------------------------------
    def occupancy(self) -> Dict[str, int]:
        return {tier.value: self._count(tier) for tier in StorageTier}

    def footprint_bytes(self) -> int:
        """Total state bytes across all registered contexts."""
        return len(self._tier) * self.context_bytes

    def __repr__(self) -> str:  # pragma: no cover
        occ = self.occupancy()
        return f"<ThreadStateStore rf={occ['rf']}/{self.rf_capacity} l2={occ['l2']} l3={occ['l3']}>"
