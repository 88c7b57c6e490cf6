"""Machine-readable metrics snapshots.

A *snapshot* is a plain JSON-serializable dict combining three sources:

1. the live :class:`~repro.obs.metrics.MetricsRegistry` (histograms and
   counters recorded on the hot paths while instrumentation is on);
2. a *harvest* of the simulator's existing statistics (engine, cores,
   storage, memory, watch bus, dropped trace records) -- these are kept as
   ordinary attributes at zero cost and only converted to metrics when
   a snapshot is taken;
3. the cycle-attribution profiles, whose buckets provably sum to
   ``engine.now`` per core.

Snapshots are deterministic: keys are sorted and every value derives
from simulation state, so a serial and a parallel evaluation of the
same experiment produce byte-identical snapshot JSON.

Metric namespace
----------------
Every metric name starts with one of the prefixes documented in
:data:`NAMESPACE`, from which ``docs/observability.md`` is generated.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.obs.metrics import MetricsRegistry

#: Documented metric-name prefixes, the one list of them
#: (docs/observability.md is generated from this).
NAMESPACE = {
    "engine": "event-loop totals (events processed, final cycle)",
    "core{N}": "per-core issue/idle/wakeup counters, the "
               "wakeup_latency_cycles histogram, and the issue arbiter's "
               "policy.* gauges (ring pointer, credited threads, "
               "outstanding credit)",
    "storage{N}": "thread-state store tiers, promotions, demotions",
    "mem": "memory loads/stores and the watch bus",
    "mem.cache": "cache-hierarchy hits/misses/evictions",
    "kernel.sched": "queueing-server latency histograms and counters",
    "kernel.io": "I/O-server wakeups, wasted cycles, latency",
    "dev": "devices (NIC packet counters)",
    "trace": "trace records dropped past a tracer's limit",
    "cluster.service{N}": "cluster front-end: request/attempt/hedge "
                          "counters, the end-to-end latency histogram, "
                          "and the full conservation audit "
                          "(``conservation.*`` gauges, one per audit "
                          "field, booleans as 0/1)",
    "cluster.node{N}": "per-node admission/completion/busy counters and "
                       "in-flight gauge",
    "cluster.fabric{N}": "network fabric sends, drops, and delay cycles",
    "coherence.directory{N}": "watch-bus MSI directory: arm/disarm/"
                              "invalidation/forward counters, charged "
                              "writer/arm/forward cycles, and the "
                              "tracked-line gauge",
    "coherence.remote{N}": "RDMA-style remote mailbox stores: "
                           "sent/delivered/dropped over the fabric",
    "coherence.tdt{N}": "sharded TDT: local/remote resolutions, remote "
                        "cache hits/misses, invtid broadcasts, and "
                        "cross-shard cycles",
}


def harvest_machine(machine, registry: MetricsRegistry) -> None:
    """Convert one machine's attribute statistics into metrics.

    Values are *added* (counters) so harvesting several machines into
    one registry aggregates a whole experiment sweep.
    """
    engine = machine.engine
    if machine.owns_engine:
        # a machine on a caller-shared engine (cluster ISA nodes) must
        # not harvest the host's event totals: they describe the hosting
        # engine, not this machine, and differ between a single-engine
        # and a sharded run of the same simulation
        registry.inc("engine.events", engine.events_processed)
        registry.inc("engine.cycles", engine.now)
    registry.inc("mem.loads", machine.memory.load_count)
    registry.inc("mem.stores", machine.memory.store_count)
    bus = machine.memory.watch_bus
    registry.inc("mem.watch_bus.notifications", bus.total_notifications)
    registry.inc("mem.watch_bus.triggers", bus.total_triggers)
    registry.inc("chip.migrations", machine.chip.migrations)
    for core in machine.chip.cores:
        prefix = f"core{core.core_id}"
        registry.inc(f"{prefix}.issue.rounds", core.issue_rounds)
        registry.inc(f"{prefix}.instructions", core.instructions_retired)
        registry.inc(f"{prefix}.idle_cycles", core.idle_cycles)
        threads = core.threads
        registry.inc(f"{prefix}.wakeups", sum(t.wakeups for t in threads))
        registry.inc(f"{prefix}.starts", sum(t.starts for t in threads))
        registry.inc(f"{prefix}.stops", sum(t.stops for t in threads))
        registry.inc(f"{prefix}.exceptions",
                     sum(t.exceptions_raised for t in threads))
        core.arbiter.fill_metrics(registry, f"{prefix}.policy")
        storage = core.storage
        sprefix = f"storage{core.core_id}"
        registry.inc(f"{sprefix}.promotions", storage.promotions)
        registry.inc(f"{sprefix}.demotions", storage.demotions)
        for tier, count in storage.starts_by_tier.items():
            registry.inc(f"{sprefix}.starts.{tier.value}", count)
        for tier, count in storage.occupancy().items():
            registry.set(f"{sprefix}.occupancy.{tier}", count)
    if machine.tracer.dropped:
        registry.inc("trace.dropped_events", machine.tracer.dropped)


def machine_snapshot(machine) -> Dict[str, Any]:
    """The full snapshot for one instrumented machine."""
    from repro.errors import ConfigError
    obs = machine.obs
    if obs is None:
        raise ConfigError("machine is not instrumented; "
                          "build it with instrument=True")
    merged = MetricsRegistry()
    merged.merge(obs.registry)
    harvest_machine(machine, merged)
    now = machine.engine.now
    return {
        "engine": {"now": now, "events": machine.engine.events_processed},
        "metrics": merged.snapshot(),
        "profile": obs.profiler.snapshot(now),
        "timeline": _timeline_summary(obs.timeline),
    }


def session_snapshot(session) -> Dict[str, Any]:
    """Aggregate snapshot over every machine and source a
    :class:`~repro.obs.Session` collected (an experiment may build one
    machine per sweep cell; they all land here)."""
    from repro.obs.merge import MachineDigest
    merged = MetricsRegistry()
    merged.merge(session.registry)
    profiles = {}
    timelines: Dict[str, Any] = {"spans": 0, "instants": 0, "open": 0,
                                 "dropped": 0}
    state_cycles: Dict[str, int] = {}
    summaries = [_timeline_summary(session.timeline)]
    for index, machine in enumerate(session.machines):
        if isinstance(machine, MachineDigest):
            # a machine that lives in a shard worker: its contribution
            # arrived pre-harvested (see repro.obs.merge)
            merged.merge(machine.harvest)
            profiles[f"machine{index}"] = machine.profile
            summaries.append(machine.timeline)
            continue
        harvest_machine(machine, merged)
        profiles[f"machine{index}"] = machine.obs.profiler.snapshot(
            machine.engine.now)
        summaries.append(_timeline_summary(machine.obs.timeline))
    for summary in summaries:
        for key in ("spans", "instants", "open", "dropped"):
            timelines[key] += summary[key]
        for state, cycles in summary["state_cycles"].items():
            state_cycles[state] = state_cycles.get(state, 0) + cycles
    timelines["state_cycles"] = {state: state_cycles[state]
                                 for state in sorted(state_cycles)}
    for prefix, fill in session.sources:
        fill(merged, prefix)
    return {
        "label": session.label,
        "machines": len(session.machines),
        "metrics": merged.snapshot(),
        "profiles": profiles,
        "timeline": timelines,
    }


def _timeline_summary(timeline) -> Dict[str, Any]:
    return {
        "spans": len(timeline.spans),
        "instants": len(timeline.instants),
        "open": len(timeline.open_spans()),
        "dropped": timeline.dropped,
        "state_cycles": timeline.state_totals(),
    }


def write_snapshot(path: str, snapshot: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
