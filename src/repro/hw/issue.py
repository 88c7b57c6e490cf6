"""The SMT issue arbiter.

Paper, Section 4 ("Support for Thread Scheduling"): "A simple way to
meet this requirement is to execute runnable hardware threads in a
fine-grain, round-robin (RR) manner, which emulates processor sharing
(PS) ... In addition to RR scheduling, we can introduce hardware support
for thread priorities (e.g., threads used for serving time-sensitive
interrupts receive more cycles)."

One arbiter does both: each issue round it picks up to ``width``
threads out of the currently issueable set, in plain round-robin order
while the pool's weights (thread priorities) are uniform and by a
weighted credit walk when they are not. It is stateful (a rotation
pointer, credit counters) but sees only ptids and priorities, never
programs.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional

from repro.hw.ptid import HardwareThread

_by_ptid = operator.attrgetter("ptid")


class WeightedRoundRobinIssue:
    """Credit-based weighted round-robin: sort-free hardware arbitration.

    The arbiter walks a ptid-ordered ring with a rotation pointer and an
    integer *credit* (deficit) counter per thread -- exactly the
    register-and-comparator structure an SMT pick stage can implement.
    Each pick consumes one credit; when no unpicked thread holds credit
    the arbiter refills every pooled thread by its weight (the thread's
    ``priority``) and keeps walking. Over any refill period a backlogged
    thread therefore issues exactly ``priority`` picks per frame of
    ``sum(priorities)``: steady-state shares are proportional to weight
    (experiment E18 measures this), and no thread starves -- every frame
    serves everyone at least once.

    A pool of uniform weights bypasses the credit walk and runs plain
    round-robin pointer arithmetic, credits untouched: any ``n``
    consecutive rounds over a stable ``n``-thread pool pick every thread
    exactly ``width`` times and return the pointer to its start. That
    periodicity is what lets :meth:`repro.hw.core.HWCore._plan_fast_forward`
    batch contended rounds, so the core asks :meth:`uniform` before it
    does. Uncontended rounds (``n <= width``) pick the whole pool in
    rotation order and leave pointer and credits unchanged, whatever
    the weights.

    Uniformity is cached next to the ptid ordering of the last pool: it
    is derived again when the pool's membership changes, and the core
    drops it (:meth:`note_priority`) on every priority write.
    Re-entry: :meth:`note_enqueue` grants a joining thread a fresh
    weight of credit; :meth:`forget` (called by the core for disabled
    ptids) drops its counter.
    """

    name = "weighted-round-robin"

    def __init__(self) -> None:
        self._next = 0
        self._credit: Dict[int, int] = {}
        # The core rebuilds `issueable` every round, but its membership
        # is stable for long stretches: keep the last pool in ptid order
        # and revalidate with one list equality check (elementwise
        # identity, O(n), no allocation). Epoch counters cannot replace
        # the check: a thread rejoins the pool by `busy_until` expiry,
        # which no event marks.
        self._ordered: List[HardwareThread] = []
        #: whether every thread in ``_ordered`` has the same weight
        #: (None: not derived since the pool or a priority changed)
        self._uniform: Optional[bool] = None

    @staticmethod
    def _weight(thread: HardwareThread) -> int:
        return thread.priority if thread.priority > 1 else 1

    def note_enqueue(self, thread: HardwareThread) -> None:
        """A (re)joining ptid gets a fresh frame's worth of credit."""
        self._credit[thread.ptid] = self._weight(thread)

    def note_priority(self) -> None:
        """A thread's weight changed: derive uniformity again."""
        self._uniform = None

    def forget(self, ptid: int) -> None:
        """Drop the credit counter of a disabled/retired ptid."""
        self._credit.pop(ptid, None)

    def _pool(self, issueable: List[HardwareThread]) -> List[HardwareThread]:
        ordered = self._ordered
        if issueable != ordered:
            ordered = self._ordered = sorted(issueable, key=_by_ptid)
            self._uniform = None
        return ordered

    def _derive_uniform(self, ordered: List[HardwareThread]) -> bool:
        weight = self._weight
        first = weight(ordered[0])
        uniform = self._uniform = all(weight(t) == first for t in ordered)
        return uniform

    def uniform(self, issueable: List[HardwareThread]) -> bool:
        """Whether ``issueable`` (non-empty) is picked in plain RR order."""
        ordered = self._pool(issueable)
        uniform = self._uniform
        if uniform is None:
            uniform = self._derive_uniform(ordered)
        return uniform

    def select(self, issueable: List[HardwareThread], width: int) -> List[HardwareThread]:
        n = len(issueable)
        if n == 1:
            # the dominant case on lightly loaded cores; the general
            # arithmetic below reduces to picking the one thread and
            # parking the pointer at 0 ((start + 1) % 1)
            self._next = 0
            return [issueable[0]]
        if not n:
            return []
        ordered = self._pool(issueable)
        start = self._next % n
        if n <= width:
            # uncontended: everyone issues; weights (and credits) are
            # irrelevant when there is nothing to arbitrate. The pick
            # order rotates; the pointer advances by n = 0 mod n, stored
            # normalized so the stream stays RR's when the pool grows
            self._next = start
            return ordered[start:] + ordered[:start]
        uniform = self._uniform
        if uniform is None:
            uniform = self._derive_uniform(ordered)
        if uniform:
            # nothing to weight: plain RR, credits untouched. Credits
            # carry cross-round memory RR does not have -- a thread that
            # spent its credit just before the pool changed would be
            # skipped where RR would pick it -- so pick-for-pick
            # equality under churn requires the bypass, not just a
            # never-skipping walk (the hypothesis suite pins this).
            end = start + width
            self._next = end % n
            if end <= n:
                return ordered[start:end]
            return ordered[start:] + ordered[:end - n]
        credit = self._credit
        picked: List[HardwareThread] = []
        picked_ids = set()
        position = start
        scanned = 0
        while len(picked) < width:
            thread = ordered[position]
            ptid = thread.ptid
            if ptid not in picked_ids:
                remaining = credit.get(ptid)
                if remaining is None:
                    remaining = self._weight(thread)
                if remaining > 0:
                    credit[ptid] = remaining - 1
                    picked.append(thread)
                    picked_ids.add(ptid)
                    position = (position + 1) % n
                    scanned = 0
                    continue
            position = (position + 1) % n
            scanned += 1
            if scanned >= n:
                # frame boundary: no unpicked thread holds credit.
                # Refill everyone by their weight (deficit carry-over:
                # += keeps long-run shares exact under partial frames).
                for other in ordered:
                    credit[other.ptid] = \
                        credit.get(other.ptid, 0) + self._weight(other)
                scanned = 0
        self._next = position
        return picked

    def fill_metrics(self, registry, prefix: str) -> None:
        """Snapshot-time harvest (nothing is recorded on the hot path)."""
        registry.set(f"{prefix}.rotation_next", self._next)
        registry.set(f"{prefix}.tracked_threads", len(self._credit))
        registry.set(f"{prefix}.credit_outstanding",
                     sum(self._credit.values()))
