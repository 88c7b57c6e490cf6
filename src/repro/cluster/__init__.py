"""Multi-machine datacenter simulation.

The paper's motivating workloads are μs-scale datacenter services, and
its per-node argument -- software-thread multiplexing taxes every
block/wake transition -- matters most *at scale*, where cluster
response time is the max over fanned-out shards and every node's tail
is amplified (the tail-at-scale effect). This package composes many
:class:`~repro.distributed.rpc.RpcServerModel` nodes into one simulated
datacenter on a shared :class:`~repro.sim.engine.Engine`:

- :mod:`repro.cluster.fabric` -- the network: one link latency
  distribution (base + exponential jitter) and drop probability, with
  a random stream per directed link;
- :mod:`repro.cluster.balancer` -- pluggable load balancing: random,
  round-robin, join-shortest-queue, power-of-two-choices;
- :mod:`repro.cluster.node` -- one machine: an RPC server plus
  admission control, conservation counters, per-node metrics/timeline;
- :mod:`repro.cluster.service` -- the front-end: request fan-out over
  shards (response = max over shards), replication via hedged
  requests, exact conservation accounting;
- :mod:`repro.cluster.run` -- config-driven runs shared by the CLI
  (``python -m repro cluster``), ``examples/cluster_service.py``, and
  experiment E14;
- :mod:`repro.cluster.pdes` -- parallel-in-time sharding: one engine
  per node partition, synchronized conservatively on the fabric's
  guaranteed link latency (``shards=N`` on :class:`ClusterConfig`,
  random or round-robin routing without hedging), byte-identical to
  the single-engine run. It loads on first use of
  :func:`run_sharded` or :class:`CausalityError` (or ``shards > 1``),
  so a single-engine run never imports it.
"""

from repro._lazy import lazy_exports
from repro.cluster.balancer import POLICIES, LoadBalancer
from repro.cluster.fabric import Fabric, LinkSpec
from repro.cluster.node import ClusterNode
from repro.cluster.run import (
    DESIGNS,
    ClusterConfig,
    ClusterRunResult,
    build_cluster,
    drive_workload,
    get_design,
    request_lookahead,
    run_cluster,
    scaled,
    summarize_run,
)
from repro.cluster.service import ClusterService

__getattr__ = lazy_exports(globals(),
                           pdes=("CausalityError", "run_sharded"))

__all__ = [
    "POLICIES",
    "DESIGNS",
    "get_design",
    "LoadBalancer",
    "Fabric",
    "LinkSpec",
    "ClusterNode",
    "ClusterService",
    "ClusterConfig",
    "ClusterRunResult",
    "build_cluster",
    "drive_workload",
    "request_lookahead",
    "run_cluster",
    "run_sharded",
    "CausalityError",
    "scaled",
    "summarize_run",
]
