"""E14: the transition tax at datacenter scale.

E09 showed one server; this experiment composes many of them into a
simulated datacenter (:mod:`repro.cluster`) and measures what the
paper's per-node argument becomes *at scale*:

1. **Fan-in tax** -- a thread-per-connection node keeps a worker pool
   proportional to the cluster size resident; sw-threads' per-transition
   overhead grows with that crowd (runqueue + cache pollution), so its
   effective utilization climbs with the node count while hw-threads
   stays flat.
2. **Tail at scale** -- cluster response time is the max over fanned-out
   shards, so the cluster p99 probes ever deeper per-node quantiles;
   combined with (1) the sw/hw p99 ratio *grows* with cluster size.
3. **Load balancing** -- load-aware policies (JSQ, power-of-two) trim
   the sw tail but do not recover hw-threads' distribution; the
   event loop tracks hw-threads (no resident-pool tax), at the usual
   programmability cost.
4. **Replication** -- hedged requests mask lossy links: without them,
   fan-out multiplies the chance that some shard dies.

All randomness flows through named RNG streams keyed off the workload
(not the design): hw and sw clusters face identical arrivals, service
draws, and placements -- common random numbers, so the ratio columns
measure the design, not sampling noise.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence, Tuple

from repro.analysis.report import ExperimentResult, Verdict
from repro.analysis.stats import LatencyRecorder
from repro.analysis.tables import Table
from repro.arch.costs import CostModel
from repro.cluster import (
    DESIGNS,
    ClusterConfig,
    LinkSpec,
    run_cluster,
    scaled,
)
from repro.experiments.registry import register

MEAN_SERVICE = 5_000        # ~1.7 us at 3 GHz: a microsecond-scale RPC
SEGMENTS = 4
RTT = 20_000
LOAD = 0.06                 # offered load of the *base* service per node
MAX_FANOUT = 8
POLICY = "random"           # placement without load-awareness or smoothing
THREADS_PER_PEER = 4


def _base_config(**overrides) -> ClusterConfig:
    defaults = dict(nodes=2, design=DESIGNS["hw-threads"], policy=POLICY,
                    fanout=2, load=LOAD, mean_service_cycles=MEAN_SERVICE,
                    segments=SEGMENTS, rtt_cycles=RTT,
                    threads_per_peer=THREADS_PER_PEER)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _cell(config: ClusterConfig, seed: int, runs: int) -> Dict:
    """Pool ``runs`` deterministic replications of one configuration."""
    pooled = LatencyRecorder(config.label())
    totals = {"issued": 0, "completed": 0, "dropped": 0, "hedges": 0,
              "rejected": 0, "wire_drops": 0}
    conserved = True
    for offset in range(runs):
        result = run_cluster(config, seed=seed + offset)
        summary = result.summary
        conserved = conserved and summary["conserved"]
        for key in totals:
            totals[key] += summary[key]
        pooled.record_many(result.service.recorder.samples)
    stats = pooled.summary() if pooled.count else None
    return {
        "p50": stats.p50 if stats else float("inf"),
        "p99": stats.p99 if stats else float("inf"),
        "conserved": conserved,
        **totals,
    }


def _requests_for(nodes: int, base: int) -> int:
    """Hold the simulated time span as the cluster grows: the arrival
    gap shrinks ~1/nodes past the fan-out cap, so the request count
    must grow with it or large clusters run too briefly to show their
    stationary tail."""
    return max(base, base * nodes // 16)


@register("E14", "Cluster tail latency: the transition tax at scale",
          'Section 2, "Simpler Distributed Programming" (at scale)')
def run(quick: bool = False, seed: int = 0xC0FFEE) -> ExperimentResult:
    node_counts: Tuple[int, ...] = (2, 8, 16) if quick else (2, 4, 8, 16, 32)
    requests = 200 if quick else 600
    runs = 2 if quick else 3
    costs = CostModel()
    result = ExperimentResult(
        "E14", "Cluster tail latency: the transition tax at scale")

    # ------------------------------------------------------------------
    # 1. the fan-in tax (analytic: why utilization climbs with scale)
    # ------------------------------------------------------------------
    tax = Table(["nodes", "resident sw threads",
                 "sw tax/transition (cyc)", "sw eff. util",
                 "hw eff. util"],
                title=f"Fan-in tax ({THREADS_PER_PEER} worker threads per "
                      f"peer, base load {LOAD}/node)")
    tax_series: Dict[int, Dict[str, float]] = {}
    for nodes in node_counts:
        resident = THREADS_PER_PEER * nodes
        overhead = {
            name: DESIGNS[name].transition_overhead_cycles(
                costs, crowd=resident if name == "sw-threads" else 0)
            for name in ("hw-threads", "sw-threads")}
        util = {name: LOAD * (MEAN_SERVICE + SEGMENTS * overhead[name])
                / MEAN_SERVICE
                for name in overhead}
        tax_series[nodes] = {"resident": resident,
                             "sw_overhead": overhead["sw-threads"],
                             "sw_util": util["sw-threads"],
                             "hw_util": util["hw-threads"]}
        tax.add_row(nodes, resident, overhead["sw-threads"],
                    round(util["sw-threads"], 3),
                    round(util["hw-threads"], 3))
    result.add_table(tax)

    # ------------------------------------------------------------------
    # 2. tail at scale: p99 vs node count, fanned out
    # ------------------------------------------------------------------
    tail_table = Table(["nodes", "fanout", "hw p99", "sw p99",
                        "sw/hw ratio", "conserved"],
                       title=f"Cluster p99 (cyc) vs node count "
                             f"({POLICY} placement, "
                             f"{runs}x{requests}+ requests/cell)")
    tail_series: Dict[int, Dict[str, float]] = {}
    for nodes in node_counts:
        fanout = min(MAX_FANOUT, nodes)
        cells = {}
        for name in ("hw-threads", "sw-threads"):
            config = _base_config(nodes=nodes, fanout=fanout,
                                  design=DESIGNS[name],
                                  requests=_requests_for(nodes, requests))
            cells[name] = _cell(config, seed, runs)
        ratio = cells["sw-threads"]["p99"] / cells["hw-threads"]["p99"]
        conserved = (cells["hw-threads"]["conserved"]
                     and cells["sw-threads"]["conserved"])
        tail_series[nodes] = {"fanout": fanout,
                              "hw_p99": cells["hw-threads"]["p99"],
                              "sw_p99": cells["sw-threads"]["p99"],
                              "ratio": ratio,
                              "conserved": conserved}
        tail_table.add_row(nodes, fanout,
                           round(cells["hw-threads"]["p99"]),
                           round(cells["sw-threads"]["p99"]),
                           round(ratio, 2), conserved)
    result.add_table(tail_table)

    # ------------------------------------------------------------------
    # 3. load-balancing policies and the third design
    # ------------------------------------------------------------------
    lb_nodes = 8 if quick else 16
    # placement needs slack (fanout < nodes) or every policy degenerates
    # to broadcast
    lb_fanout = min(MAX_FANOUT, lb_nodes // 2)
    lb_table = Table(["policy"]
                     + [f"{name} p99" for name in
                        ("hw-threads", "sw-threads", "event-loop")],
                     title=f"p99 (cyc) by balancing policy "
                           f"({lb_nodes} nodes, fanout {lb_fanout})")
    lb_series: Dict[str, Dict[str, float]] = {}
    for policy in ("random", "round-robin", "jsq", "p2c"):
        cells = {}
        for name in ("hw-threads", "sw-threads", "event-loop"):
            config = _base_config(nodes=lb_nodes, fanout=lb_fanout,
                                  design=DESIGNS[name], policy=policy,
                                  requests=requests)
            cells[name] = _cell(config, seed + 1, runs)
        lb_series[policy] = {name: cells[name]["p99"] for name in cells}
        lb_table.add_row(policy, *[round(cells[name]["p99"])
                                   for name in cells])
    result.add_table(lb_table)

    # ------------------------------------------------------------------
    # 4. lossy links: fan-out multiplies loss, hedging masks it
    # ------------------------------------------------------------------
    hedge_nodes = 8 if quick else 16
    hedge_fanout = min(MAX_FANOUT, hedge_nodes)
    lossy = LinkSpec(drop_prob=0.01)
    hedge_after = 8 * RTT
    hedge_table = Table(["hedging", "completed", "dropped", "hedges",
                         "p99"],
                        title=f"hw-threads over 1%-lossy links "
                              f"({hedge_nodes} nodes, fanout "
                              f"{hedge_fanout})")
    hedge_series: Dict[str, Dict[str, float]] = {}
    for label, after in (("off", None), ("on", hedge_after)):
        config = _base_config(nodes=hedge_nodes, fanout=hedge_fanout,
                              requests=requests, link=lossy,
                              hedge_after=after)
        cell = _cell(config, seed + 2, runs)
        hedge_series[label] = cell
        hedge_table.add_row(label, cell["completed"], cell["dropped"],
                            cell["hedges"], round(cell["p99"]))
    result.add_table(hedge_table)

    # ------------------------------------------------------------------
    # 5. parallel-in-time sharding: PDES workers are invisible in the
    #    results (the guaranteed link latency is exploitable lookahead)
    # ------------------------------------------------------------------
    shard_nodes = 16 if quick else 256
    shard_fanout = min(MAX_FANOUT, shard_nodes)
    shard_requests = _requests_for(shard_nodes, requests if quick else 300)
    shard_table = Table(["shards", "windows", "completed", "p50", "p99",
                         "identical"],
                        title=f"Conservative PDES sharding (hw-threads, "
                              f"{POLICY} placement, {shard_nodes} nodes, "
                              f"fanout {shard_fanout}, process workers)")
    shard_series: Dict[int, Dict[str, object]] = {}
    baseline = None
    for shards in (1, 2, 4):
        config = _base_config(nodes=shard_nodes, fanout=shard_fanout,
                              requests=shard_requests, shards=shards)
        run_result = run_cluster(config, seed=seed + 3,
                                 transport="process")
        summary = run_result.summary
        stats = run_result.service.recorder.summary()
        pdes = run_result.pdes
        fingerprint = (json.dumps(summary, sort_keys=True),
                       stats.p50, stats.p99)
        if baseline is None:
            baseline = fingerprint
        identical = fingerprint == baseline
        shard_series[shards] = {
            "windows": pdes.get("windows", 0),
            "completed": summary["completed"],
            "p50": stats.p50,
            "p99": stats.p99,
            "identical": identical,
        }
        shard_table.add_row(shards, pdes.get("windows", 0),
                            summary["completed"], round(stats.p50),
                            round(stats.p99), identical)
    result.add_table(shard_table)

    result.data["tax"] = tax_series
    result.data["tail"] = tail_series
    result.data["policies"] = lb_series
    result.data["hedge"] = hedge_series
    result.data["sharding"] = shard_series
    result.data["node_counts"] = list(node_counts)

    # ------------------------------------------------------------------
    # claims
    # ------------------------------------------------------------------
    ratios = [tail_series[n]["ratio"] for n in node_counts]
    growing = all(b > a for a, b in zip(ratios, ratios[1:]))
    deep = [n for n in node_counts if tail_series[n]["fanout"] >= 8]
    amplified = all(tail_series[n]["ratio"] > 2.0 for n in deep)
    result.add_claim(
        "the software-thread transition tax is amplified, not averaged "
        "away, by cluster fan-out",
        "multiplexing a large number of software threads onto a small "
        "number of hardware threads is expensive",
        "sw/hw p99 ratio vs nodes: "
        + " -> ".join(f"{r:.2f}" for r in ratios),
        Verdict.SUPPORTED if growing and amplified else Verdict.PARTIAL)

    best_policy = min(lb_series, key=lambda p: lb_series[p]["sw-threads"])
    best_sw = lb_series[best_policy]["sw-threads"]
    best_hw = lb_series[best_policy]["hw-threads"]
    cannot_buy_back = all(
        lb_series[policy]["sw-threads"] > lb_series[policy]["hw-threads"]
        for policy in lb_series)
    result.add_claim(
        "no load-balancing policy buys back the transition tax",
        "even switching between software threads in the same protection "
        "level incurs hundreds of cycles of overhead",
        f"best sw policy ({best_policy}) p99 {best_sw:.0f} vs hw "
        f"{best_hw:.0f} cycles",
        Verdict.SUPPORTED if cannot_buy_back else Verdict.PARTIAL)

    el_close = all(
        lb_series[policy]["event-loop"]
        <= 2.0 * lb_series[policy]["hw-threads"]
        for policy in lb_series)
    result.add_claim(
        "hw threads keep blocking-I/O semantics at event-loop "
        "performance, per node and at scale",
        "use simple blocking I/O semantics without suffering from "
        "significant thread scheduling overheads",
        f"event-loop p99 within 2x of hw-threads under every policy "
        f"at {lb_nodes} nodes",
        Verdict.SUPPORTED if el_close else Verdict.PARTIAL)

    masked = (hedge_series["on"]["dropped"] < hedge_series["off"]["dropped"]
              and hedge_series["on"]["hedges"] > 0)
    result.add_claim(
        "replication (hedged requests) masks lossy links that fan-out "
        "otherwise multiplies",
        "cheap thread-per-request blocking I/O extends to a hedge "
        "thread per straggling shard (Section 2 model, summarized)",
        f"dropped requests {hedge_series['off']['dropped']} -> "
        f"{hedge_series['on']['dropped']} with hedging "
        f"({hedge_series['on']['hedges']} hedges)",
        Verdict.SUPPORTED if masked else Verdict.PARTIAL)

    invisible = all(cell["identical"] for cell in shard_series.values())
    result.add_claim(
        "conservative PDES sharding is invisible in the results",
        "cross-machine communication is orders of magnitude more "
        "expensive than an intra-machine context switch -- the same "
        "asymmetry the simulator exploits as guaranteed lookahead "
        "(infrastructure claim)",
        f"shards 1/2/4 over {shard_nodes} nodes: summaries and latency "
        f"quantiles byte-identical = {invisible}",
        Verdict.SUPPORTED if invisible else Verdict.PARTIAL)
    return result
