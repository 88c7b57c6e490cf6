"""Observability: metrics, timelines, profiles, and exporters.

Three collection primitives (see the sibling modules for details):

- :class:`~repro.obs.metrics.MetricsRegistry` -- typed counters, gauges
  and log-linear histograms under hierarchical dotted names;
- :class:`~repro.obs.timeline.Timeline` -- per-ptid state spans for
  Perfetto export;
- :class:`~repro.obs.profile.Profiler` -- per-core cycle attribution
  whose buckets sum exactly to ``engine.now``.

Instrumentation is **off by default and nearly free when off**: the hot
paths, the core's issue loop included, check one attribute against
``None``.  It only observes: an instrumented machine runs exactly the
simulation an uninstrumented one does.  Turn it on per machine with
``build_machine(instrument=True)`` or for a whole region with a
:func:`session`::

    with obs.session("E03") as sess:
        result = experiment.run(quick=True)
    snapshot = sess.snapshot()
    trace = sess.chrome_trace()

A session is how the CLI instruments experiments it cannot reach into:
every :class:`~repro.machine.Machine` built while a session is active
instruments itself and registers with it, and components that live
outside any machine (kernel queueing servers, cache hierarchies, NICs)
register as metric *sources*.  Sessions nest; the innermost wins.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import BUCKETS, CoreProfile, Profiler
from repro.obs.timeline import Instant, Span, ThreadState, Timeline

__all__ = [
    "BUCKETS", "Counter", "CoreProfile", "Gauge", "Histogram", "Instant",
    "MachineObs", "MetricsRegistry", "Profiler", "Session", "Span",
    "ThreadState", "Timeline", "active", "session",
]


class MachineObs:
    """The per-machine instrumentation bundle (``machine.obs``)."""

    __slots__ = ("registry", "timeline", "profiler")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.timeline = Timeline()
        self.profiler = Profiler()


class Session:
    """Collects every instrumented machine and metric source built while
    the session is active (see :func:`session`)."""

    def __init__(self, label: str = "obs"):
        self.label = label
        self.registry = MetricsRegistry()
        #: live machines and :class:`~repro.obs.merge.MachineDigest`
        #: stand-ins for machines that live in another process
        self.machines: List[Any] = []
        self.sources: List[Tuple[str, Callable[[MetricsRegistry, str], None]]] = []
        #: the ``kind`` each source was registered under, parallel to
        #: ``sources`` -- lets a shard worker's sources be re-registered
        #: elsewhere under the same kind (see ``repro.obs.merge``)
        self.source_kinds: List[str] = []
        self._source_counts: Dict[str, int] = {}
        # spans for components that run outside any machine (kernel I/O
        # and queueing servers); each gets a named track on its own
        # engine's clock
        self.timeline = Timeline()
        self._next_track = 0

    # ------------------------------------------------------------------
    def register_machine(self, machine: Any) -> None:
        self.machines.append(machine)

    def register_source(self, kind: str,
                        fill: Callable[[MetricsRegistry, str], None]) -> str:
        """Register a ``fill(registry, prefix)`` harvest callback under a
        unique ``{kind}{index}`` prefix; returns the prefix."""
        index = self._source_counts.get(kind, 0)
        self._source_counts[kind] = index + 1
        prefix = f"{kind}{index}"
        self.sources.append((prefix, fill))
        self.source_kinds.append(kind)
        return prefix

    def register_track(self, name: str) -> int:
        """Claim a named track on the session timeline for a component
        that has no (core, ptid) identity; returns the track id to pass
        as ``core_id`` (with ``ptid=0``) in transitions."""
        track = self._next_track
        self._next_track += 1
        self.timeline.name_core(track, name)
        self.timeline.name_track(track, 0, name)
        return track

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        from repro.obs.snapshot import session_snapshot
        return session_snapshot(self)

    def chrome_trace(self) -> Dict[str, Any]:
        """One Perfetto trace over all collected machines, a pid block
        per machine."""
        from repro.obs.export import chrome_trace
        from repro.obs.merge import MachineDigest
        timelines = []
        ends = [0]
        for index, machine in enumerate(self.machines):
            if isinstance(machine, MachineDigest):
                continue  # raw spans stayed in the worker process
            machine.obs.timeline.finish(machine.engine.now)
            ends.append(machine.engine.now)
            timelines.append((f"m{index}", machine.obs.timeline,
                              machine.config.freq_ghz))
        if self.timeline.spans or self.timeline.instants \
                or self.timeline.open_spans():
            # component tracks run on their own engines' clocks; close
            # whatever is still open at the latest clock seen
            ends.extend(span.end for span in self.timeline.spans)
            ends.extend(begin for _, _, _, begin
                        in self.timeline.open_spans())
            self.timeline.finish(max(ends))
            live = [machine for machine in self.machines
                    if not isinstance(machine, MachineDigest)]
            freq = live[0].config.freq_ghz if live else 1.0
            timelines.append(("session", self.timeline, freq))
        return chrome_trace(timelines, metadata={"source": "repro",
                                                 "label": self.label})

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Session {self.label!r} machines={len(self.machines)}"
                f" sources={len(self.sources)}>")


_ACTIVE: List[Session] = []


def active() -> Optional[Session]:
    """The innermost active session, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def session(label: str = "obs") -> Iterator[Session]:
    """Activate a fresh :class:`Session` for the ``with`` body."""
    sess = Session(label)
    _ACTIVE.append(sess)
    try:
        yield sess
    finally:
        _ACTIVE.pop()
