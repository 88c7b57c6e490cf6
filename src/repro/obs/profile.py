"""Cycle-attribution profiler.

Buckets every simulated cycle of every core into exactly one of:

- ``issue``        -- a round in which at least one uop issued and some
                      issueable thread did more than burn ``work``;
- ``stall``        -- runnable threads exist but none can issue yet
                      (all waiting out busy-cycle latencies);
- ``mwait``        -- no runnable threads and at least one is parked in
                      MONITOR/MWAIT (the paper's blocked state);
- ``fastforward``  -- work-burn rounds: every issueable thread was
                      mid-``work`` (the trigger condition of the
                      busy-cycle fast-forward), attributed here whether
                      the round was batch-skipped or stepped naively.
                      Attribution from simulation state -- not from
                      whether a batch fired -- keeps the split identical
                      across hosts (fast-forward on/off, single-engine
                      vs PDES shard);
- ``idle``         -- no threads at all (before boot / after all
                      stopped), plus trailing clock advancement when
                      ``engine.run(until=...)`` moves time past the
                      last event.

The invariant -- checked by :meth:`CoreProfile.snapshot` consumers and
the test suite -- is that the buckets sum *exactly* to ``engine.now``
for every core on every run.  The core loop guarantees it by pairing a
:meth:`CoreProfile.pend` (or :meth:`CoreProfile.pend_split`) before
each ``yield`` with a :meth:`CoreProfile.settle` when it resumes, so
wall-to-wall coverage holds even for waits of unknown length (Signal
wakeups); whatever tail is still pending or unaccounted at snapshot time
is charged to the pending bucket(s) / ``idle`` respectively.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

#: Attribution buckets, in display order.
BUCKETS = ("issue", "stall", "mwait", "fastforward", "idle")


class CoreProfile:
    """Per-core cycle ledger."""

    __slots__ = ("core_id", "buckets", "_pending")

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.buckets: Dict[str, int] = {bucket: 0 for bucket in BUCKETS}
        #: (first bucket, since, bucket for every cycle after the
        #: first, or None when the first bucket takes them all)
        self._pending: Optional[Tuple[str, int, Optional[str]]] = None

    def pend(self, bucket: str, since: int) -> None:
        """Declare that cycles from ``since`` until the next
        :meth:`settle` belong to ``bucket`` (called just before the core
        yields)."""
        self._pending = (bucket, since, None)

    def pend_split(self, first: str, since: int, rest: str) -> None:
        """Like :meth:`pend`, but only the cycle at ``since`` belongs to
        ``first``; every later one belongs to ``rest``. An issue round
        that drops straight into a stall is one ``first`` cycle, then
        ``rest`` until the earliest busy thread frees."""
        self._pending = (first, since, rest)

    def settle(self, now: int) -> None:
        """Close the pending interval at ``now`` (called when the core
        resumes)."""
        if self._pending is not None:
            _close(self._pending, now, self.buckets)
            self._pending = None

    def charge(self, bucket: str, cycles: int) -> None:
        """Directly attribute a known-length interval (fast-forward)."""
        self.buckets[bucket] += cycles

    def accounted(self, now: int) -> int:
        """Cycles attributed so far, including any pending interval."""
        total = sum(self.buckets.values())
        if self._pending is not None:
            total += now - self._pending[1]
        return total

    def snapshot(self, now: int) -> Dict[str, int]:
        """Bucket totals summing exactly to ``now``.

        The still-pending interval (a core mid-wait when the run
        stopped) is folded into its declared bucket; any remainder --
        a halted core, or clock advancement past the final event --
        is idle time by definition.
        """
        out = dict(self.buckets)
        if self._pending is not None:
            _close(self._pending, now, out)
        accounted = sum(out.values())
        if accounted > now:
            raise ConfigError(
                f"core {self.core_id} attributed {accounted} cycles"
                f" but engine.now is {now}")
        out["idle"] += now - accounted
        out["total"] = now
        return out


def _close(pending: Tuple[str, int, Optional[str]], now: int,
           buckets: Dict[str, int]) -> None:
    """Charge a pending interval, closed at ``now``, into ``buckets``."""
    bucket, since, rest = pending
    cycles = now - since
    if rest is not None and cycles > 1:
        buckets[rest] += cycles - 1
        cycles = 1
    buckets[bucket] += cycles


class Profiler:
    """A :class:`CoreProfile` per core, created on first touch."""

    def __init__(self) -> None:
        self.cores: Dict[int, CoreProfile] = {}

    def core(self, core_id: int) -> CoreProfile:
        profile = self.cores.get(core_id)
        if profile is None:
            profile = self.cores[core_id] = CoreProfile(core_id)
        return profile

    def snapshot(self, now: int) -> Dict[str, Dict[str, int]]:
        return {f"core{core_id}": self.cores[core_id].snapshot(now)
                for core_id in sorted(self.cores)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Profiler cores={sorted(self.cores)}>"
