"""One machine of the simulated datacenter.

A :class:`ClusterNode` wraps a server backend -- any implementation of
the :class:`~repro.backends.base.ServerBackend` protocol, selected by
name from the string-keyed registry (``"model"`` for the behavioral
:class:`~repro.distributed.rpc.RpcServerModel`, ``"isa"`` for the full
ISA-level machine) and serving one design (hw-threads, sw-threads, or
event-loop -- the per-node design is the experiment variable) -- and
adds what the cluster layer needs on top:

- admission control with a bounded in-flight limit (``queue_limit``),
  so overload sheds load instead of queueing unboundedly;
- exact conservation counters -- at any instant
  ``admitted == completed + in_flight`` per node, which
  ``tests/test_property_invariants.py`` asserts under random schedules;
- a per-node metric namespace (``cluster.node{N}.*``) and a busy/idle
  timeline track when an obs session is active.

A sharded run (:mod:`repro.cluster.pdes`) puts a ``ClusterNode`` on
both sides of the process boundary: the shard worker's node runs the
server, and the client's proxy is a ``ClusterNode`` whose ``server`` is
that worker, so both sides keep these counters by the same code.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from repro.arch.costs import CostModel
from repro.backends import ServerBackend, create_backend
from repro.distributed.rpc import ServerDesign
from repro.errors import ConfigError
from repro.obs.timeline import ThreadState
from repro.sim.engine import Engine


class ClusterNode:
    """One server machine: an RPC server plus cluster bookkeeping."""

    def __init__(self, engine: Engine, node_id: int, design: ServerDesign,
                 costs: Optional[CostModel] = None,
                 queue_limit: Optional[int] = None,
                 resident_threads: Optional[int] = None,
                 backend: str = "model", register_obs: bool = True,
                 coherence: Optional[str] = None,
                 server: Optional[ServerBackend] = None):
        if node_id < 0:
            raise ConfigError(f"node id must be >= 0, got {node_id}")
        if queue_limit is not None and queue_limit < 1:
            raise ConfigError(
                f"queue limit must be >= 1, got {queue_limit}")
        self.engine = engine
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.design = design
        self.queue_limit = queue_limit
        # a datacenter node keeps a thread-per-connection worker pool
        # resident; the caller sizes it to the node's fan-in. A PDES
        # proxy passes the server it stands for instead.
        self.server = server if server is not None else create_backend(
            backend, engine, design, costs=costs,
            resident_threads=resident_threads, coherence=coherence)
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self._in_flight = 0
        # observability: a per-node metric namespace and a busy/idle
        # timeline track, only when a session is active. A PDES shard
        # worker passes register_obs=False: the client-side proxy of
        # each of its nodes owns the obs registration, so a sharded
        # snapshot carries exactly the single-engine namespaces.
        self._obs_timeline = None
        self._obs_track = 0
        import repro.obs as obs
        session = obs.active() if register_obs else None
        if session is not None:
            prefix = session.register_source("cluster.node",
                                             self._fill_metrics)
            self._obs_timeline = session.timeline
            self._obs_track = session.register_track(
                f"{prefix}.{design.name}")
        # distributed tracing: node-side span fragments (admission,
        # completion, and -- via the backend's sink -- demand). Unlike
        # register_obs this is NOT suppressed in PDES shard workers:
        # fragments are recorded where the node lives and shipped home
        # (the client-side proxies are built with tracing off).
        import repro.obs.spans as spans
        self._spans = spans.active()
        if self._spans is not None:
            self.server.span_sink = self._spans

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Requests admitted but not finished (the balancer's load signal)."""
        return self._in_flight

    def busy_cycles(self) -> int:
        return self.server.cpu_busy_cycles()

    # ------------------------------------------------------------------
    def offer(self, request_id: int, segment_cycles: Sequence[float],
              rtt_cycles: int,
              on_done: Optional[Callable[[], None]] = None) -> bool:
        """A shard request reaches this node; False when shed at admission."""
        if self.queue_limit is not None \
                and self._in_flight >= self.queue_limit:
            self.rejected += 1
            if self._spans is not None:
                self._spans.node_reject(request_id, self.engine.now)
            return False
        self.admitted += 1
        self._in_flight += 1
        if self._spans is not None:
            self._spans.node_admit(request_id, self.engine.now)
        if self._obs_timeline is not None and self._in_flight == 1:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.RUNNING,
                                          self.engine.now)
        self.server.submit(request_id, segment_cycles, rtt_cycles,
                           partial(self._finished, request_id, on_done))
        return True

    def _finished(self, request_id: int,
                  on_done: Optional[Callable[[], None]]) -> None:
        self._in_flight -= 1
        self.completed += 1
        if self._spans is not None:
            self._spans.node_done(request_id, self.engine.now)
        if self._obs_timeline is not None and self._in_flight == 0:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.MWAIT,
                                          self.engine.now)
        if on_done is not None:
            on_done()

    # ------------------------------------------------------------------
    def conserved(self) -> bool:
        """The node-local conservation law."""
        return self.admitted == self.completed + self._in_flight

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.admitted", self.admitted)
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.rejected", self.rejected)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles())
        registry.set(f"{prefix}.in_flight", self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ClusterNode {self.name} {self.design.name}"
                f" in_flight={self._in_flight}>")
