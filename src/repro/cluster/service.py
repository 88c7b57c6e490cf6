"""The cluster front-end: fan-out, replication, and hedged requests.

A cluster request is split into ``fanout`` shard requests; each shard
is routed through the :class:`~repro.cluster.balancer.LoadBalancer` to
a node and carried both ways by the
:class:`~repro.cluster.fabric.Fabric`. The cluster response time is the
**max over shards** -- the tail-at-scale amplification: at fan-out N
the cluster p99 probes each node's 0.99^(1/N) quantile, so per-node
tail inflation (the sw-thread transition tax) is magnified, not
averaged away.

Loss and stragglers are handled by **hedged requests**: if a shard has
not responded ``hedge_after`` cycles after launch, one duplicate is
sent to a replica the shard has not tried yet; the first response wins
(the loser's work still burns server capacity, as in real systems).

Conservation is tracked exactly so property tests can audit any run,
even one stopped mid-flight at a horizon:

- per node:   ``admitted == completed + in_flight``;
- shard attempts: every launch ends in exactly one of
  {request-wire drop, admission rejection, node admission}, and every
  node admission ends in {response delivered, response-wire drop,
  still in the node};
- cluster:    ``issued == completed + dropped + in_flight``.

A cluster request is *dropped* only when some shard is dead: all its
attempts failed (wire drop or rejection) and no hedge remains to
revive it. Responses that arrive for an already-settled request are
counted (``late_responses``) but change nothing.

This is the only front-end: a sharded run
(:mod:`repro.cluster.pdes`) drives the same class and fabric over
proxy nodes whose admission verdicts and completions come from the
shard workers, so both wires, the admission accounting and the
conservation audit are this module's code on either path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import LatencyRecorder
from repro.cluster.balancer import LoadBalancer
from repro.cluster.fabric import Fabric
from repro.cluster.node import ClusterNode
from repro.errors import ConfigError
from repro.sim.engine import Engine, Event

CLIENT = "client"


def segment_split(cycles: float, segments: int) -> List[float]:
    """One shard's service draw as ``segments`` equal compute segments
    (at least one cycle in all): the request a node is offered."""
    return [max(1.0, cycles) / segments] * segments


@dataclass
class _ShardState:
    """One shard of one in-flight cluster request."""

    done: bool = False
    outstanding: int = 0          # attempts on the wire or in a node
    hedge: Optional[Event] = None  # a hedge timer that may still revive us
    tried: Tuple[ClusterNode, ...] = ()


@dataclass
class _RequestState:
    """One in-flight cluster request."""

    request_id: int
    arrived: int
    shards: List[_ShardState] = field(default_factory=list)
    remaining: int = 0            # shards not yet done
    settled: bool = False         # completed or dropped


class ClusterService:
    """Fans cluster requests over the nodes and records the max-over-
    shards response time."""

    def __init__(self, engine: Engine, nodes: Sequence[ClusterNode],
                 balancer: LoadBalancer, fabric: Fabric, *,
                 fanout: int = 1, segments: int = 2,
                 rtt_cycles: int = 10_000,
                 hedge_after: Optional[int] = None):
        if fanout < 1:
            raise ConfigError(f"fanout must be >= 1, got {fanout}")
        if fanout > len(nodes):
            raise ConfigError(
                f"fanout {fanout} exceeds the {len(nodes)}-node cluster")
        if segments < 1:
            raise ConfigError(f"segments must be >= 1, got {segments}")
        if hedge_after is not None and hedge_after < 1:
            raise ConfigError(
                f"hedge delay must be >= 1 cycle, got {hedge_after}")
        self.engine = engine
        self.nodes = list(nodes)
        self.balancer = balancer
        self.fabric = fabric
        self.fanout = fanout
        self.segments = segments
        self.rtt_cycles = rtt_cycles
        self.hedge_after = hedge_after
        self.recorder = LatencyRecorder("cluster.latency")
        # cluster-request accounting
        self.issued = 0
        self.completed = 0
        self.dropped = 0
        self.in_flight = 0
        # shard-attempt accounting
        self.attempts = 0
        self.hedges_sent = 0
        self.request_wire_drops = 0
        self.response_wire_drops = 0
        self.rejected = 0
        self.late_responses = 0
        self.shards_completed = 0    # first responses: shards marked done
        self.requests_on_wire = 0    # request messages in transit
        self.responses_on_wire = 0   # response messages in transit
        self._next_shard_req = 0
        self._obs_latency = None
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            prefix = session.register_source("cluster.service",
                                             self._fill_metrics)
            self._obs_latency = session.registry.histogram(
                f"{prefix}.latency_cycles")
        # distributed tracing: the ambient span store (None when off --
        # every hook below is a single attribute-is-None guard)
        import repro.obs.spans as spans
        self._spans = spans.active()

    # ------------------------------------------------------------------
    def submit(self, request_id: int,
               shard_service_cycles: Sequence[float]) -> None:
        """A cluster request arrives now, one service draw per shard."""
        if len(shard_service_cycles) != self.fanout:
            raise ConfigError(
                f"expected {self.fanout} shard service draws, got "
                f"{len(shard_service_cycles)}")
        state = _RequestState(request_id=request_id,
                              arrived=self.engine.now,
                              remaining=self.fanout)
        if self._spans is not None:
            self._spans.request_begin(request_id, state.arrived,
                                      self.fanout)
        self.issued += 1
        self.in_flight += 1
        for shard_index, cycles in enumerate(shard_service_cycles):
            shard = _ShardState()
            state.shards.append(shard)
            if self.hedge_after is not None:
                shard.hedge = self.engine.after(self.hedge_after,
                                                self._hedge, state,
                                                shard_index, cycles)
            self._launch(state, shard_index, cycles)

    # ------------------------------------------------------------------
    def _launch(self, state: _RequestState, shard_index: int,
                cycles: float) -> None:
        shard = state.shards[shard_index]
        node = self.balancer.pick(exclude=shard.tried)
        shard.tried = shard.tried + (node,)
        shard.outstanding += 1
        self.attempts += 1
        # the attempt id is assigned client-side at launch (not at node
        # arrival) so it is a pure function of the routing sequence --
        # the sharded runtime relies on this to name attempts
        # identically on both sides of a process boundary
        self._next_shard_req += 1
        attempt_id = self._next_shard_req
        if self._spans is not None:
            self._spans.attempt_launch(
                state.request_id, shard_index, attempt_id,
                node.name, self.engine.now,
                hedged=len(shard.tried) > 1)
        due = self.fabric.send_traced(CLIENT, node.name, self._arrive,
                                      state, shard_index, cycles, node,
                                      attempt_id)
        if due is not None:
            self.requests_on_wire += 1
        else:
            self.request_wire_drops += 1
            if self._spans is not None:
                self._spans.attempt_request_dropped(attempt_id)
            self._attempt_failed(state, shard_index)

    def _arrive(self, state: _RequestState, shard_index: int,
                cycles: float, node: ClusterNode, attempt_id: int) -> None:
        self.requests_on_wire -= 1
        accepted = node.offer(
            attempt_id, segment_split(cycles, self.segments),
            self.rtt_cycles,
            partial(self._node_finished, state, shard_index, node,
                    attempt_id))
        if not accepted:
            self.rejected += 1
            self._attempt_failed(state, shard_index)

    def _node_finished(self, state: _RequestState, shard_index: int,
                       node: ClusterNode, attempt_id: int) -> None:
        due = self.fabric.send_traced(node.name, CLIENT, self._response,
                                      state, shard_index, attempt_id)
        if due is not None:
            self.responses_on_wire += 1
        else:
            self.response_wire_drops += 1
            if self._spans is not None:
                self._spans.attempt_response_dropped(attempt_id)
            self._attempt_failed(state, shard_index)

    def _response(self, state: _RequestState, shard_index: int,
                  attempt_id: int) -> None:
        self.responses_on_wire -= 1
        shard = state.shards[shard_index]
        shard.outstanding -= 1
        if state.settled or shard.done:
            # a duplicate (hedged) or post-settlement response
            self.late_responses += 1
            if self._spans is not None:
                self._spans.attempt_late(attempt_id, self.engine.now)
            return
        shard.done = True
        if shard.hedge is not None:
            # a done shard's hedge would be a no-op: nothing reads the
            # timer once the shard is done
            self.engine.cancel(shard.hedge)
            shard.hedge = None
        self.shards_completed += 1
        state.remaining -= 1
        if self._spans is not None:
            self._spans.attempt_won(attempt_id, self.engine.now)
        if state.remaining == 0:
            state.settled = True
            self.completed += 1
            self.in_flight -= 1
            latency = self.engine.now - state.arrived
            self.recorder.record(latency)
            if self._obs_latency is not None:
                self._obs_latency.record(latency)
            if self._spans is not None:
                # the attempt settling the request is, by construction,
                # the winner of the slowest shard: the critical path
                self._spans.request_settled(state.request_id,
                                            self.engine.now, "completed",
                                            critical_attempt=attempt_id)

    # ------------------------------------------------------------------
    def _attempt_failed(self, state: _RequestState,
                        shard_index: int) -> None:
        shard = state.shards[shard_index]
        shard.outstanding -= 1
        if state.settled or shard.done:
            return
        if shard.outstanding == 0 and shard.hedge is None:
            # the shard is dead and nothing can revive it
            state.settled = True
            self.dropped += 1
            self.in_flight -= 1
            # the other shards' hedges would be no-ops on a settled request
            for other in state.shards:
                if other.hedge is not None:
                    self.engine.cancel(other.hedge)
                    other.hedge = None
            if self._spans is not None:
                self._spans.request_settled(state.request_id,
                                            self.engine.now, "dropped")

    def _hedge(self, state: _RequestState, shard_index: int,
               cycles: float) -> None:
        shard = state.shards[shard_index]
        shard.hedge = None
        if state.settled or shard.done:
            return
        self.hedges_sent += 1
        self._launch(state, shard_index, cycles)

    # ------------------------------------------------------------------
    def conservation(self) -> Dict[str, Any]:
        """Audit the conservation laws; every ``*_ok`` flag must hold at
        any instant, including mid-run at a horizon."""
        per_node = []
        for node in self.nodes:
            per_node.append({
                "node": node.name,
                "admitted": node.admitted,
                "completed": node.completed,
                "in_flight": node.in_flight(),
                "ok": node.conserved(),
            })
        admitted = sum(n.admitted for n in self.nodes)
        node_completed = sum(n.completed for n in self.nodes)
        node_in_flight = sum(n.in_flight() for n in self.nodes)
        # every launched attempt settles into exactly one bucket
        attempts_ok = (
            self.attempts
            == self.request_wire_drops + self.rejected + admitted
            + self.requests_on_wire)
        # every node completion becomes exactly one of: a dropped
        # response, a response still on the wire, a first response that
        # marked a shard done, or a late/duplicate response
        completions_ok = (
            node_completed
            == self.response_wire_drops + self.responses_on_wire
            + self.shards_completed + self.late_responses)
        requests_ok = (self.issued
                       == self.completed + self.dropped + self.in_flight)
        return {
            "per_node": per_node,
            "nodes_ok": all(entry["ok"] for entry in per_node),
            "attempts": self.attempts,
            "attempts_ok": attempts_ok,
            "completions_ok": completions_ok,
            "requests_ok": requests_ok,
            "ok": (all(entry["ok"] for entry in per_node)
                   and attempts_ok and completions_ok and requests_ok),
            "issued": self.issued,
            "completed": self.completed,
            "dropped": self.dropped,
            "in_flight": self.in_flight,
            "node_in_flight": node_in_flight,
        }

    # ------------------------------------------------------------------
    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.issued", self.issued)
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.dropped", self.dropped)
        registry.inc(f"{prefix}.attempts", self.attempts)
        registry.inc(f"{prefix}.hedges", self.hedges_sent)
        registry.inc(f"{prefix}.rejected", self.rejected)
        registry.inc(f"{prefix}.late_responses", self.late_responses)
        registry.set(f"{prefix}.in_flight", self.in_flight)
        # the full conservation audit, gauge-per-field, so dashboards
        # reading only the snapshot can re-run every check (booleans as
        # 0/1 gauges -- the snapshot round-trips the whole dict)
        audit = self.conservation()
        base = f"{prefix}.conservation"
        for key in ("ok", "nodes_ok", "attempts_ok", "completions_ok",
                    "requests_ok"):
            registry.set(f"{base}.{key}", int(audit[key]))
        for key in ("attempts", "issued", "completed", "dropped",
                    "in_flight", "node_in_flight"):
            registry.set(f"{base}.{key}", audit[key])
        for entry in audit["per_node"]:
            node_base = f"{base}.{entry['node']}"
            registry.set(f"{node_base}.admitted", entry["admitted"])
            registry.set(f"{node_base}.completed", entry["completed"])
            registry.set(f"{node_base}.in_flight", entry["in_flight"])
            registry.set(f"{node_base}.ok", int(entry["ok"]))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ClusterService fanout={self.fanout}"
                f" nodes={len(self.nodes)} issued={self.issued}"
                f" completed={self.completed}>")
