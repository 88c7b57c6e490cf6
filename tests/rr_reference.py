"""Plain fine-grain round-robin: the reference the issue arbiter must match.

Paper, Section 4: "execute runnable hardware threads in a fine-grain,
round-robin (RR) manner, which emulates processor sharing (PS)". The
core's :class:`~repro.hw.issue.WeightedRoundRobinIssue` claims to pick
exactly this stream -- pick for pick, rotation pointer included -- while
the pool's weights are uniform. This class is kept deliberately naive
(it re-sorts the pool every round) so that claim has an independent
check.
"""

from __future__ import annotations

import operator

_by_ptid = operator.attrgetter("ptid")


class RoundRobinIssue:
    """Rotate through the issueable ptids, ``width`` picks per round."""

    def __init__(self) -> None:
        self._next = 0

    def note_enqueue(self, thread) -> None:
        """A ptid became runnable. RR has no state to fix."""

    def select(self, issueable, width):
        if not issueable:
            return []
        ordered = sorted(issueable, key=_by_ptid)
        n = len(ordered)
        start = self._next % n
        picked = [ordered[(start + i) % n] for i in range(min(width, n))]
        self._next = (start + len(picked)) % n
        return picked
