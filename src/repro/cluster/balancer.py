"""Load-balancing policies for the cluster front-end.

Four classics, in increasing order of information used:

- ``random`` -- uniform choice, no state consulted;
- ``round-robin`` -- cycle through the nodes, no state consulted;
- ``p2c`` -- power-of-two-choices: sample two nodes, send to the less
  loaded (captures most of JSQ's benefit with O(1) state probes);
- ``jsq`` -- join-shortest-queue: global minimum of in-flight requests
  (the omniscient upper bound a real balancer only approximates).

Load is each node's admitted-but-unfinished count
(:meth:`~repro.cluster.node.ClusterNode.in_flight`). By default the
balancer reads it exactly (the omniscient oracle); a real balancer
probes periodically and routes on stale counts, which
``probe_delay_cycles`` models: with a delay of ``D``, every load read
comes from a snapshot of all nodes refreshed at most once per ``D``
cycles. ``probe_delay_cycles=0`` (the default) is the exact oracle and
byte-identical to the pre-staleness behavior.

``pick(exclude=...)`` supports replica selection for hedged requests:
a hedge must land on a node the shard has not already tried.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.cluster.node import ClusterNode
from repro.sim.engine import Engine

from random import Random

#: The policy names, in the order tables report them.
POLICIES = ("random", "round-robin", "jsq", "p2c")

#: The policies whose picks read no node state: their outbound request
#: sequence is a pure function of the RNG streams, which is what lets a
#: sharded run (``shards > 1``, :mod:`repro.cluster.pdes`) generate it
#: ahead of the shard workers. Sharded runs accept only these.
STATE_FREE_POLICIES = ("random", "round-robin")

#: jsq's exact load, read with no Python frame per node:
#: ``ClusterNode.in_flight()`` returns this field
_IN_FLIGHT = operator.attrgetter("_in_flight")


class LoadBalancer:
    """Routes shard requests to cluster nodes under one policy."""

    def __init__(self, nodes: Sequence[ClusterNode], policy: str = "p2c",
                 rng: Optional[Random] = None,
                 probe_delay_cycles: int = 0,
                 engine: Optional[Engine] = None):
        if not nodes:
            raise ConfigError("a balancer needs at least one node")
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; known: {list(POLICIES)}")
        if policy in ("random", "p2c") and rng is None:
            raise ConfigError(f"policy {policy!r} needs an rng")
        if probe_delay_cycles < 0:
            raise ConfigError(
                f"probe delay must be >= 0 cycles, got "
                f"{probe_delay_cycles}")
        if probe_delay_cycles > 0 and engine is None:
            raise ConfigError(
                "a stale balancer (probe_delay_cycles > 0) needs the "
                "engine to timestamp its probe snapshots")
        self.nodes = list(nodes)
        # jsq scans in id order: min() keeps the first, lowest-id node
        # among equally loaded ones
        self._by_id = sorted(self.nodes, key=operator.attrgetter("node_id"))
        self.policy = policy
        self.rng = rng
        self.probe_delay_cycles = probe_delay_cycles
        self.engine = engine
        self.probes = 0               # snapshot refreshes taken
        self.picks = 0
        self._rr_next = 0
        self._probe_cache: Dict[int, int] = {}
        self._probe_time: Optional[int] = None

    # ------------------------------------------------------------------
    def _load(self, node: ClusterNode) -> int:
        """The load signal jsq/p2c route on: exact, or a cached probe
        snapshot no older than ``probe_delay_cycles``."""
        if self.probe_delay_cycles == 0:
            return node.in_flight()
        now = self.engine.now
        if (self._probe_time is None
                or now - self._probe_time >= self.probe_delay_cycles):
            self._probe_cache = {n.node_id: n.in_flight()
                                 for n in self.nodes}
            self._probe_time = now
            self.probes += 1
        return self._probe_cache[node.node_id]

    # ------------------------------------------------------------------
    def pick(self, exclude: Tuple[ClusterNode, ...] = ()) -> ClusterNode:
        """Choose a node; ``exclude`` lists replicas already tried.

        If exclusion empties the candidate set (hedging on a cluster
        smaller than the retry budget) the full set is used again.
        """
        self.picks += 1
        policy = self.policy
        if policy == "jsq":
            pool = self._by_id
            if exclude:
                pool = [n for n in pool if n not in exclude] or pool
            return min(pool, key=_IN_FLIGHT if self.probe_delay_cycles == 0
                       else self._load)
        nodes = self.nodes
        candidates = nodes
        if exclude:
            candidates = [n for n in nodes if n not in exclude] or nodes
        if policy == "random":
            return self.rng.choice(candidates)
        if policy == "round-robin":
            return self._pick_rr(candidates)
        # p2c: two distinct probes when possible, less loaded wins,
        # lower id on ties (deterministic)
        if len(candidates) == 1:
            return candidates[0]
        first, second = self.rng.sample(candidates, 2)
        if (self._load(second), second.node_id) \
                < (self._load(first), first.node_id):
            return second
        return first

    def _pick_rr(self, candidates) -> ClusterNode:
        # advance the global pointer until it lands on a candidate, so
        # excluded nodes are skipped without desynchronizing the cycle
        nodes = self.nodes
        while True:
            node = nodes[self._rr_next]
            self._rr_next = (self._rr_next + 1) % len(nodes)
            if candidates is nodes or node in candidates:
                return node

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<LoadBalancer {self.policy} nodes={len(self.nodes)}"
                f" picks={self.picks}>")
