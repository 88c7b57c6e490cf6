"""Merging observability across process boundaries.

A PDES shard worker (:mod:`repro.cluster.pdes`) runs real nodes --
queueing servers, ISA machines, caches -- in another process, where
they register with a worker-local :class:`~repro.obs.Session`.  For a
sharded snapshot to equal the single-engine snapshot byte for byte,
that worker-side state must travel back to the coordinator as plain
picklable data and be replayed into the client session under the
*global* source indices the single-engine run would have allocated.

This module provides the transport-agnostic pieces:

- :class:`MachineDigest` -- a picklable stand-in for an instrumented
  machine: its harvested metrics, profile snapshot, and timeline
  summary, computed where the machine lives.  A digest sits in
  ``Session.machines`` next to live machines and snapshots
  identically (Chrome traces skip digests: raw spans stay remote).
- :func:`machine_digest` -- build one from a live machine.
- :func:`harvest_source` -- run a source's ``fill`` callback into a
  fresh registry keyed by *relative* metric names.
- :func:`split_registry` -- partition a registry's entries by their
  owning source prefix (longest dotted match), relative-keyed.
- :func:`merge_at` -- fold a relative-keyed registry into a target
  under a new prefix (counters add, gauges set, histograms merge
  sample-exactly).
- :func:`replay_source` -- wrap a harvested registry as a ``fill``
  callback, so the client can re-register the source.
- :func:`import_timeline` -- replay shipped spans/instants/open spans
  into a timeline under remapped track ids.

Every digest quantity is a pure function of the (byte-identical)
simulation history -- cores, memory, caches, dropped traces, timelines,
and the profiler buckets -- so a sharded snapshot round-trips exactly,
for the behavioral and the ISA backend alike.  Two host-engine
artifacts used to leak through and were closed at the source:
``engine.*`` counters are harvested only from machines that *own*
their engine (a shard host's event count is not a simulation fact),
and the profiler attributes work-burn cycles to ``fastforward``
whether they were batched or stepped (the batching decision reads the
host engine's foreign-event queue; the burn condition does not).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: Placeholder prefix used to harvest a fill callback relative-keyed.
_HARVEST_PREFIX = "@"


class MachineDigest:
    """Picklable snapshot contribution of a machine in another process."""

    __slots__ = ("harvest", "profile", "timeline")

    def __init__(self, harvest: MetricsRegistry, profile: Dict[str, Any],
                 timeline: Dict[str, Any]):
        self.harvest = harvest
        self.profile = profile
        self.timeline = timeline

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MachineDigest metrics={len(self.harvest)}>"


def machine_digest(machine: Any) -> MachineDigest:
    """Digest a live instrumented machine (call where the machine lives,
    after its last event).

    Only the attribute *harvest* is digested here: a machine built
    under a session records its hot-path metrics straight into the
    session registry, which ships separately -- folding
    ``machine.obs.registry`` in as well would double-count them.
    """
    from repro.obs.snapshot import _timeline_summary, harvest_machine
    registry = MetricsRegistry()
    harvest_machine(machine, registry)
    return MachineDigest(
        harvest=registry,
        profile=machine.obs.profiler.snapshot(machine.engine.now),
        timeline=_timeline_summary(machine.obs.timeline))


def harvest_source(fill: Callable[[MetricsRegistry, str], None]
                   ) -> MetricsRegistry:
    """Run ``fill`` once and return its output keyed by relative name."""
    scratch = MetricsRegistry()
    fill(scratch, _HARVEST_PREFIX)
    return _strip_prefix(scratch, _HARVEST_PREFIX)


def split_registry(registry: MetricsRegistry, prefixes: Sequence[str]
                   ) -> Tuple[Dict[str, MetricsRegistry], MetricsRegistry]:
    """Partition entries by owning prefix (longest dotted match wins).

    Returns ``(per_prefix, leftover)`` where each value registry is
    keyed by the name *relative* to its prefix; entries matching no
    prefix land in ``leftover`` under their full name.
    """
    ordered = sorted(prefixes, key=len, reverse=True)
    per_prefix = {prefix: MetricsRegistry() for prefix in prefixes}
    leftover = MetricsRegistry()

    def place(name: str) -> Tuple[MetricsRegistry, str]:
        for prefix in ordered:
            if name == prefix or name.startswith(prefix + "."):
                return per_prefix[prefix], name[len(prefix) + 1:]
        return leftover, name

    for name, counter in registry._counters.items():
        target, rel = place(name)
        target.counter(rel or name).inc(counter.value)
    for name, gauge in registry._gauges.items():
        target, rel = place(name)
        target.gauge(rel or name).set(gauge.value)
    for name, histogram in registry._histograms.items():
        target, rel = place(name)
        target.histogram(rel or name).merge(histogram)
    return per_prefix, leftover


def merge_at(target: MetricsRegistry, prefix: str,
             relative: MetricsRegistry) -> None:
    """Fold a relative-keyed registry into ``target`` under ``prefix``."""
    for name, counter in relative._counters.items():
        target.counter(f"{prefix}.{name}").inc(counter.value)
    for name, gauge in relative._gauges.items():
        target.gauge(f"{prefix}.{name}").set(gauge.value)
    for name, histogram in relative._histograms.items():
        target.histogram(f"{prefix}.{name}").merge(histogram)


def replay_source(harvest: MetricsRegistry
                  ) -> Callable[[MetricsRegistry, str], None]:
    """A ``fill`` callback replaying a harvested registry verbatim."""
    def fill(registry: MetricsRegistry, prefix: str) -> None:
        merge_at(registry, prefix, harvest)
    return fill


def import_timeline(timeline: Any,
                    spans: Sequence[Tuple[int, int, Any, int, int]],
                    instants: Sequence[Tuple[int, int, str, int]],
                    open_spans: Sequence[Tuple[int, int, Any, int]],
                    idmap: Dict[int, int]) -> None:
    """Replay shipped timeline rows under remapped track ids.

    ``spans``/``open_spans`` rows carry the worker-local track id in
    position 0; ``idmap`` translates it to the id the importing session
    allocated.  Open spans stay open (snapshot counts them as such,
    exactly like the single-engine run's still-open server spans).
    """
    from repro.obs.timeline import Instant, Span
    for core_id, ptid, state, begin, end in spans:
        timeline.spans.append(Span(idmap[core_id], ptid, state, begin, end))
    for core_id, ptid, name, at in instants:
        timeline.instants.append(Instant(idmap[core_id], ptid, name, at))
    for core_id, ptid, state, begin in open_spans:
        timeline._open[(idmap[core_id], ptid)] = (state, begin)


def _strip_prefix(registry: MetricsRegistry, prefix: str) -> MetricsRegistry:
    dotted = prefix + "."
    out = MetricsRegistry()
    for name, counter in registry._counters.items():
        out.counter(_relative(name, dotted)).inc(counter.value)
    for name, gauge in registry._gauges.items():
        out.gauge(_relative(name, dotted)).set(gauge.value)
    for name, histogram in registry._histograms.items():
        out.histogram(_relative(name, dotted)).merge(histogram)
    return out


def _relative(name: str, dotted: str) -> str:
    return name[len(dotted):] if name.startswith(dotted) else name


__all__ = [
    "MachineDigest", "machine_digest", "harvest_source", "split_registry",
    "merge_at", "replay_source", "import_timeline",
]
