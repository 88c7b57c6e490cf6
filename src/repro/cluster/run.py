"""One-call cluster runs: config in, deterministic summary out.

:func:`run_cluster` builds the whole stack -- shared engine, nodes,
balancer, fabric, front-end, open-loop workload -- runs it, and returns
a :class:`ClusterRunResult`. The CLI verb (``python -m repro cluster``),
``examples/cluster_service.py``, and experiment E14 all go through this
one entry point so a configuration means the same thing everywhere.

Determinism: every random draw comes from named
:class:`~repro.sim.rng.RngStreams` keyed off ``config.label()``, so the
same (config, seed) pair reproduces byte-identical results in any
process -- the property the parallel evaluation runner relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.arch.costs import CostModel
from repro.backends import backend_names
from repro.cluster.balancer import LoadBalancer
from repro.cluster.fabric import Fabric, LinkSpec
from repro.cluster.node import ClusterNode
from repro.cluster.service import CLIENT, ClusterService
from repro.distributed.rpc import (
    EVENT_LOOP,
    HW_THREADS,
    SW_THREADS,
    ServerDesign,
)
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import Exponential, ServiceDistribution

#: Server designs by name, for the CLI and experiment sweeps.
DESIGNS = {d.name: d for d in (HW_THREADS, SW_THREADS, EVENT_LOOP)}

#: Shard placement policies (see :func:`build_cluster`).
PLACEMENTS = ("any", "same-rack")


def get_design(name: str) -> ServerDesign:
    """Look up a server design by name; actionable error on a miss."""
    design = DESIGNS.get(name)
    if design is None:
        raise ConfigError(
            f"unknown server design {name!r}; known designs: "
            f"{', '.join(DESIGNS)}")
    return design


@dataclass(frozen=True)
class ClusterConfig:
    """Everything one cluster run depends on."""

    nodes: int = 4
    design: ServerDesign = HW_THREADS
    policy: str = "round-robin"
    fanout: int = 1
    load: float = 0.6               # per-node offered load of base service
    mean_service_cycles: int = 20_000
    segments: int = 2
    rtt_cycles: int = 10_000        # mid-request remote call, per segment gap
    requests: int = 500
    cores_per_node: int = 1
    queue_limit: Optional[int] = None
    hedge_after: Optional[int] = None
    threads_per_peer: int = 4       # worker-pool size per cluster peer
    link: LinkSpec = LinkSpec()
    horizon_factor: float = 8.0     # run horizon in mean-gap multiples
    backend: str = "model"          # server backend: "model" | "isa"
    probe_delay_cycles: int = 0     # jsq/p2c load-signal staleness
    racks: int = 1                  # nodes are striped node_id % racks
    cross_rack_link: Optional[LinkSpec] = None  # client<->other racks
    placement: str = "any"          # "any" | "same-rack" shard placement
    shards: int = 1                 # engine shards (parallel-in-time PDES)
    coherence: str = "off"          # watch-bus model: "off" | "directory"
                                    # | "null" (isa backend only)

    def __post_init__(self) -> None:
        if not isinstance(self.design, ServerDesign):
            raise ConfigError(
                f"design must be a ServerDesign, got {self.design!r}; look "
                f"one up by name with get_design() (known designs: "
                f"{', '.join(DESIGNS)})")
        if self.nodes < 1:
            raise ConfigError(f"need at least one node, got {self.nodes}")
        if not 0.0 < self.load:
            raise ConfigError(f"load must be positive, got {self.load}")
        if self.requests < 1:
            raise ConfigError(
                f"need at least one request, got {self.requests}")
        if self.fanout > self.nodes:
            raise ConfigError(
                f"fanout {self.fanout} exceeds {self.nodes} nodes")
        if self.threads_per_peer < 0:
            raise ConfigError(
                f"threads_per_peer must be >= 0, got {self.threads_per_peer}")
        if self.backend not in backend_names():
            raise ConfigError(
                f"unknown server backend {self.backend!r}; known "
                f"backends: {', '.join(backend_names())}")
        if self.probe_delay_cycles < 0:
            raise ConfigError(
                f"probe delay must be >= 0 cycles, got "
                f"{self.probe_delay_cycles}")
        if self.racks < 1:
            raise ConfigError(f"need at least one rack, got {self.racks}")
        if self.racks > self.nodes:
            raise ConfigError(
                f"{self.racks} racks need at least as many nodes, "
                f"got {self.nodes}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; known: "
                f"{', '.join(PLACEMENTS)}")
        if self.shards < 1:
            raise ConfigError(
                f"need at least one shard, got {self.shards}")
        if self.shards > self.nodes:
            raise ConfigError(
                f"{self.shards} shards need at least as many nodes, "
                f"got {self.nodes}")
        if self.coherence != "off":
            from repro.coherence.directory import MODEL_NAMES
            if self.coherence not in MODEL_NAMES:
                raise ConfigError(
                    f"unknown coherence model {self.coherence!r}; known: "
                    f"off, {', '.join(MODEL_NAMES)}")
            if self.backend != "isa":
                raise ConfigError(
                    "coherence models attach to a node's machine; use "
                    "backend='isa' (the 'model' backend has no machine)")

    def label(self) -> str:
        """Stable stream-name prefix for this configuration.

        Non-default fidelity/topology knobs append suffixes so new
        configurations get fresh streams, while every pre-existing
        configuration keeps its exact historical label (byte-identical
        tables across the backend refactor). ``shards`` is deliberately
        absent: how a run is partitioned across engines must never
        change which random numbers it draws.
        """
        extra = ""
        if self.backend != "model":
            extra += f".{self.backend}"
        if self.coherence != "off":
            extra += f".coh-{self.coherence}"
        if self.probe_delay_cycles:
            extra += f".pd{self.probe_delay_cycles}"
        if self.racks > 1:
            extra += f".r{self.racks}.{self.placement}"
        return (f"cluster.n{self.nodes}.{self.design.name}.{self.policy}"
                f".f{self.fanout}.l{self.load}{extra}")

    def workload_label(self) -> str:
        """Stream prefix for the *offered workload* -- deliberately
        independent of the server design, the backend fidelity level,
        the probe delay, and the placement policy, so hw-threads and
        sw-threads clusters -- and behavioral-model and ISA-level
        clusters -- face identical arrival times and service draws
        (common random numbers: comparisons measure the design or the
        backend, not the sampling noise)."""
        return (f"cluster.n{self.nodes}.{self.policy}"
                f".f{self.fanout}.l{self.load}")

    def mean_gap_cycles(self) -> float:
        """Cluster inter-arrival gap that offers ``load`` per node.

        Each arrival puts ``fanout`` shards of mean service into the
        cluster, spread over ``nodes`` nodes of ``cores_per_node``
        capacity each.
        """
        demand_per_arrival = self.fanout * self.mean_service_cycles
        capacity = self.nodes * self.cores_per_node
        return demand_per_arrival / (self.load * capacity)

    def horizon(self) -> int:
        return int(self.requests * self.mean_gap_cycles()
                   * self.horizon_factor) + 16 * self.rtt_cycles


@dataclass
class ClusterRunResult:
    """A finished run: the live objects plus the headline numbers."""

    config: ClusterConfig
    engine: Engine
    service: ClusterService
    summary: Dict[str, Any]


def node_link_spec(config: ClusterConfig, node_id: int) -> LinkSpec:
    """The (symmetric) client<->node link spec under this topology:
    the client sits in rack 0, so nodes in any other rack pay the
    cross-rack spec when one is configured."""
    if config.cross_rack_link is not None and node_id % config.racks != 0:
        return config.cross_rack_link
    return config.link


def request_lookahead(config: ClusterConfig) -> int:
    """The conservative-PDES lookahead: the minimum base latency of any
    client->node link that can carry a request. Every cross-shard
    message pays at least this much wire time, so a shard that has seen
    all messages sent by time T is safe to run through T + lookahead."""
    return min(node_link_spec(config, node_id).base_cycles
               for node_id in range(config.nodes))


def build_cluster(config: ClusterConfig, streams: RngStreams,
                  engine: Optional[Engine] = None,
                  costs: Optional[CostModel] = None) -> ClusterService:
    """Assemble nodes + balancer + fabric + front-end on one engine."""
    engine = engine or Engine()
    costs = costs or CostModel()
    label = config.workload_label()
    # fan-in scales with the cluster: every peer keeps
    # threads_per_peer worker connections resident on each node
    resident = (config.threads_per_peer * config.nodes
                if config.threads_per_peer > 0 else None)
    coherence = None if config.coherence == "off" else config.coherence
    nodes = [ClusterNode(engine, node_id, config.design, costs,
                         cores=config.cores_per_node,
                         queue_limit=config.queue_limit,
                         resident_threads=resident,
                         backend=config.backend,
                         coherence=coherence)
             for node_id in range(config.nodes)]
    # "same-rack" placement keeps shards in the client's rack (rack 0,
    # node_id % racks == 0); "any" spreads over the whole cluster
    if config.placement == "same-rack":
        eligible = [n for n in nodes if n.node_id % config.racks == 0]
    else:
        eligible = nodes
    balancer = LoadBalancer(eligible, config.policy,
                            rng=streams.stream(f"{label}.lb"),
                            probe_delay_cycles=config.probe_delay_cycles,
                            engine=engine)
    # per-directed-link streams: a link's draw sequence depends only on
    # the traffic crossing that link, which is what lets a PDES shard
    # worker reproduce its own links without seeing the others
    fabric = Fabric(
        engine,
        stream_factory=lambda link: streams.stream(f"{label}.net.{link}"),
        default_link=config.link)
    for node in nodes:
        spec = node_link_spec(config, node.node_id)
        if spec is not config.link:
            fabric.set_link(CLIENT, node.name, spec)
            fabric.set_link(node.name, CLIENT, spec)
    return ClusterService(engine, nodes, balancer, fabric,
                          fanout=config.fanout, segments=config.segments,
                          rtt_cycles=config.rtt_cycles,
                          hedge_after=config.hedge_after)


def drive_workload(service: ClusterService, config: ClusterConfig,
                   streams: RngStreams,
                   distribution: Optional[ServiceDistribution] = None) -> None:
    """Open-loop Poisson arrivals, one independent service draw per
    shard (the tail-at-scale model: shards straggle independently)."""
    label = config.workload_label()
    arrivals = PoissonArrivals(config.mean_gap_cycles())
    gaps = arrivals.gaps(streams.stream(f"{label}.arrivals"))
    service_rng = streams.stream(f"{label}.service")
    distribution = distribution or Exponential(config.mean_service_cycles)
    engine = service.engine
    state = {"issued": 0}

    def next_arrival() -> None:
        if state["issued"] >= config.requests:
            return
        engine.after(max(1, int(round(next(gaps)))), arrive)

    def arrive() -> None:
        state["issued"] += 1
        draws = [distribution.sample(service_rng)
                 for _ in range(config.fanout)]
        service.submit(state["issued"], draws)
        next_arrival()

    next_arrival()


def run_cluster(config: ClusterConfig, seed: int = 0xC0FFEE,
                distribution: Optional[ServiceDistribution] = None,
                horizon: Optional[int] = None,
                transport: str = "process") -> ClusterRunResult:
    """Build, drive, and run one cluster to its horizon.

    With ``config.shards > 1`` the run is partitioned over shard
    engines by the conservative PDES runtime (``transport`` selects
    worker processes or the in-process debug mode); the summary is
    byte-identical to the single-engine run either way.
    """
    if config.shards > 1:
        from repro.cluster.pdes import run_sharded
        return run_sharded(config, seed=seed, distribution=distribution,
                           horizon=horizon, transport=transport)
    streams = RngStreams(seed)
    service = build_cluster(config, streams)
    drive_workload(service, config, streams, distribution)
    engine = service.engine
    engine.run(until=horizon if horizon is not None else config.horizon())
    return ClusterRunResult(config=config, engine=engine, service=service,
                            summary=summarize_run(service))


def summarize_run(service: ClusterService) -> Dict[str, Any]:
    """The headline numbers every table and test reads."""
    if service.completed == 0:
        latency = {"p50": float("inf"), "p95": float("inf"),
                   "p99": float("inf"), "mean": float("inf")}
    else:
        summary = service.recorder.summary()
        latency = {"p50": summary.p50, "p95": summary.p95,
                   "p99": summary.p99, "mean": summary.mean}
    conservation = service.conservation()
    return {
        "issued": service.issued,
        "completed": service.completed,
        "dropped": service.dropped,
        "in_flight": service.in_flight,
        "hedges": service.hedges_sent,
        "rejected": service.rejected,
        "wire_drops": (service.request_wire_drops
                       + service.response_wire_drops),
        "goodput_per_mcycle": (service.completed / service.engine.now * 1e6
                               if service.engine.now else 0.0),
        "mean_net_delay": service.fabric.mean_delay_cycles(),
        "conserved": conservation["ok"],
        **latency,
    }


def scaled(config: ClusterConfig, **changes: Any) -> ClusterConfig:
    """A copy of ``config`` with fields replaced (sweep helper)."""
    return replace(config, **changes)
