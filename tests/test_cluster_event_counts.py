"""Exact engine work at the E14 operating point, at the default seed,
and of the cluster micro-runs in ``benchmarks/`` at their seed 7.

The E14 configurations are those of the benchmark's ``cluster_model``
(jsq over 32 nodes, one sw-threads and one hw-threads run),
``cluster_hedged`` (lossy links, hedge timers, request spans) and
``cluster_isa`` (every node an ISA machine) workloads. The micro-runs
are ``bench_e14_cluster.micro_bench`` and
``shard_scaling`` at one shard, and ``bench_e15_backends.micro_bench``
on the ISA backend, whose retired instructions give the engine events
per retired instruction. Engine events, processor-sharing completions
and completion deadlines armed are deterministic, so they are pinned
exactly: a change that adds or drops engine work, on purpose or not,
fails here and must re-baseline these numbers in the same change,
listing old -> new in CHANGES.md.
"""

from contextlib import nullcontext

import pytest

import repro.obs.spans as spans
from repro.cluster import DESIGNS, ClusterConfig, LinkSpec, run_cluster
from repro.cluster.run import build_cluster, drive_workload
from repro.cluster.service import ClusterService
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


#: (design, coherence) -> (engine events, retired instructions) of the
#: four ``cluster_isa`` configurations, checked on the claimed side of
#: ``tests/test_claim_oracle.py::test_cluster_isa_run_matches_without_claims``,
#: which runs each with and without claimed rounds
ISA_CASES = {
    ("hw-threads", "off"): (3_859, 2_080),
    ("sw-threads", "off"): (6_473, 2_080),
    ("event-loop", "off"): (2_862, 1_531),
    ("hw-threads", "directory"): (4_603, 2_080),
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


def _bench_config(design, nodes, fanout, policy, requests, **overrides):
    """The cluster micro-runs' shared workload shape."""
    return ClusterConfig(nodes=nodes, design=DESIGNS[design], policy=policy,
                         fanout=fanout, load=0.1, mean_service_cycles=5_000,
                         segments=4, rtt_cycles=20_000, requests=requests,
                         **overrides)


#: name -> (config, engine events, retired instructions on ISA nodes)
BENCH_RUNS = {
    "e14-cluster-run": (
        _bench_config("sw-threads", 8, 4, "random", 200), 8_998, 0),
    "e14-shard-scaling-1": (
        _bench_config("sw-threads", 16, 8, "round-robin", 300, shards=1),
        27_284, 0),
    "e15-cluster-run-isa": (
        ClusterConfig(nodes=2, design=DESIGNS["hw-threads"],
                      policy="round-robin", fanout=1, load=0.06,
                      mean_service_cycles=4_000, segments=2,
                      rtt_cycles=20_000, requests=60, backend="isa"),
        1_246, 720),
}


@pytest.mark.parametrize("name", sorted(BENCH_RUNS))
def test_exact_bench_run_work(name):
    config, events, instructions = BENCH_RUNS[name]
    result = run_cluster(config, seed=7)
    assert result.summary["conserved"]
    assert result.summary["completed"] == config.requests
    assert result.engine.events_processed == events
    retired = sum(node.server.machine.core(0).instructions_retired
                  for node in result.service.nodes
                  if config.backend == "isa")
    assert retired == instructions


def test_sw_threads_tail_above_hw_on_the_micro_run():
    """The fan-in crowding tax on the E14 micro-run's workload: for the
    same requests sw-threads pays a longer tail than hw-threads."""
    summaries = {
        design: run_cluster(_bench_config(design, 8, 4, "random", 200),
                            seed=7).summary
        for design in ("hw-threads", "sw-threads")}
    for summary in summaries.values():
        assert summary["conserved"]
        assert summary["completed"] == 200
    assert summaries["sw-threads"]["p99"] > summaries["hw-threads"]["p99"]


def test_a_dropped_request_cancels_its_hedge_timers(monkeypatch):
    """Lossy links and a two-deep admission queue drop requests whose
    other shards still hold a hedge timer; settling the request as
    dropped cancels them, so no hedge fires on a settled request."""
    config = _base_config(nodes=16, fanout=8, policy="round-robin",
                          requests=400, design=DESIGNS["hw-threads"],
                          link=LinkSpec(drop_prob=0.05),
                          hedge_after=8 * RTT, queue_limit=2)
    hedges = []
    hedge = ClusterService._hedge

    def noting_hedge(service, state, shard_index, cycles):
        hedges.append(state.settled)
        hedge(service, state, shard_index, cycles)

    monkeypatch.setattr(ClusterService, "_hedge", noting_hedge)
    streams = RngStreams(DEFAULT_SEED)
    service = build_cluster(config, streams)
    drive_workload(service, config, streams)
    service.engine.run(until=config.horizon())
    assert service.conservation()["ok"]
    assert service.dropped == 60 and service.completed == 340
    assert len(hedges) == 444 and not any(hedges)
    assert service.engine.events_processed == 30_302
