"""The O(nodes) load balancer: the reference ``LoadBalancer.pick`` must match.

:class:`~repro.cluster.balancer.LoadBalancer` skips building a candidate
list when nothing is excluded: ``random`` draws straight from its node
list, ``round-robin`` just advances its pointer and exact ``jsq`` runs
one C-level ``min`` over the nodes in id order. This class is kept
deliberately naive -- every pick filters the node list, and every load
read goes through ``in_flight()`` or the probe snapshot -- so that
shortcut has an independent check: same node, same random draws.
"""

from __future__ import annotations


class LoadBalancer:
    """Routes like the real balancer, rebuilding candidates per pick."""

    def __init__(self, nodes, policy, rng=None, probe_delay_cycles=0,
                 engine=None) -> None:
        self.nodes = list(nodes)
        self.policy = policy
        self.rng = rng
        self.probe_delay_cycles = probe_delay_cycles
        self.engine = engine
        self.probes = 0
        self.picks = 0
        self._rr_next = 0
        self._probe_cache = {}
        self._probe_time = None

    def _load(self, node) -> int:
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

    def pick(self, exclude=()):
        candidates = [n for n in self.nodes if n not in exclude]
        if not candidates:
            candidates = self.nodes
        self.picks += 1
        if self.policy == "random":
            return self.rng.choice(candidates)
        if self.policy == "round-robin":
            return self._pick_rr(candidates)
        if self.policy == "jsq":
            return min(candidates,
                       key=lambda n: (self._load(n), n.node_id))
        if len(candidates) == 1:
            return candidates[0]
        first, second = self.rng.sample(candidates, 2)
        if (self._load(second), second.node_id) \
                < (self._load(first), first.node_id):
            return second
        return first

    def _pick_rr(self, candidates):
        for _ in range(len(self.nodes)):
            node = self.nodes[self._rr_next % len(self.nodes)]
            self._rr_next = (self._rr_next + 1) % len(self.nodes)
            if node in candidates:
                return node
        return candidates[0]
