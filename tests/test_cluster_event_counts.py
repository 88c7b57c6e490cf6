"""Exact engine work at the E14 operating point, at the default seed.

The two configurations are those of the benchmark's ``cluster_model``
(jsq over 32 nodes, one sw-threads and one hw-threads run) and
``cluster_hedged`` (lossy links, hedge timers, request spans)
workloads. Engine events, processor-sharing completions and completion
deadlines armed are deterministic, so they are pinned exactly: a
change that adds or drops engine work, on purpose or not, fails here
and must re-baseline these numbers in the same change, listing old ->
new in CHANGES.md.
"""

from contextlib import nullcontext

import pytest

import repro.obs.spans as spans
from repro.cluster import DESIGNS, LinkSpec
from repro.cluster.run import build_cluster, drive_workload
from repro.experiments.e14_cluster import RTT, _base_config
from repro.kernel.sched import ProcessorSharingServer
from repro.sim.engine import HeapEngine
from repro.sim.rng import RngStreams

DEFAULT_SEED = 0xC0FFEE

#: name -> (config overrides, traced, events, PS completions, PS arms)
CASES = {
    "model-sw-threads": (
        dict(nodes=32, fanout=8, policy="jsq", requests=200,
             design=DESIGNS["sw-threads"]),
        False, 16_476, 6_400, 8_268),
    "model-hw-threads": (
        dict(nodes=32, fanout=8, policy="jsq", requests=200,
             design=DESIGNS["hw-threads"]),
        False, 16_473, 6_400, 8_584),
    "hedged": (
        dict(nodes=16, fanout=8, policy="round-robin", requests=400,
             design=DESIGNS["hw-threads"], link=LinkSpec(drop_prob=0.01),
             hedge_after=8 * RTT),
        True, 29_762, 12_912, 13_315),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_engine_work(name, monkeypatch):
    overrides, traced, events, completions, arms = CASES[name]
    config = _base_config(**overrides)
    armed = []
    at = HeapEngine.at

    def counting_at(engine, time, fn, *args):
        if getattr(fn, "__func__", None) is ProcessorSharingServer._complete:
            armed.append(time)
        return at(engine, time, fn, *args)

    monkeypatch.setattr(HeapEngine, "at", counting_at)
    with spans.tracing(top_k=8) if traced else nullcontext():
        streams = RngStreams(DEFAULT_SEED)
        service = build_cluster(config, streams)
        drive_workload(service, config, streams)
        service.engine.run(until=config.horizon())
    assert service.conservation()["ok"]
    assert service.engine.events_processed == events
    assert sum(node.server.cpu.completed
               for node in service.nodes) == completions
    assert len(armed) == arms
