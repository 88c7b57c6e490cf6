"""Parallel-in-time cluster runs: conservative PDES over shard workers.

The paper's core asymmetry -- cross-domain transitions are cheap,
cross-*machine* communication is not -- is exactly the property a
conservative parallel discrete-event scheme exploits. Every message
between the cluster front-end and a node pays at least the
:class:`~repro.cluster.fabric.LinkSpec` base latency, so that latency
is guaranteed *lookahead*: a shard that has seen every message sent by
time ``T`` can safely simulate through ``T + lookahead`` without ever
receiving an event from the past.

Topology
--------
The cluster is a star: nodes talk only to the client, never to each
other. That makes the partition simple -- node ``i`` lives on shard
``i % shards``, each shard runs its own :class:`~repro.sim.engine.Engine`,
and the client side (front-end, balancer, workload, latency
recorder) runs on the coordinating engine. Cross-shard sends
become timestamped tuples over pipes, delivered into the destination
engine at ``send_time + sampled link delay``.

One synchronization schedule
----------------------------
Sharded runs route with a state-free policy (``random`` or
``round-robin``, no hedging; :class:`~repro.cluster.run.ClusterConfig`
rejects anything else), so the client's outbound traffic is a pure
function of the named RNG streams. A first engine-less pass replays
that draw sequence and streams every request to the workers ahead of
time. Workers then run big adaptive windows while the client replays
accounting one window behind -- synchronization cost amortizes to
nothing and the window size self-tunes toward a target event count per
batch. Between windows the coordinator and the workers block in
``conn.recv()``. Load-aware routing (jsq, p2c) and hedging would make
the next route depend on node state one response ago, which leaves no
lookahead to run ahead on.

Determinism
-----------
Every random draw comes from the same named streams as the
single-engine run -- per-directed-link fabric streams, the balancer
stream, the arrival and service-time streams -- and attempt ids are
assigned client-side at launch, so a sharded run consumes *exactly*
the draws of the single-engine run, in the same per-stream order. The
summary is byte-identical to ``shards=1`` (asserted by tests at small
scale and by the mirror cross-check on every run). The one caveat:
when two events collide on the *same cycle* of one shard engine, the
dispatch tie-break is insertion order, which a partitioned run cannot
always reproduce; injection is staged at the original send time to
make the insertion order match in all but pathological collisions.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.costs import CostModel
from repro.cluster.balancer import LoadBalancer
from repro.cluster.node import ClusterNode
from repro.cluster.service import CLIENT, ClusterService
from repro.cluster.run import (
    ClusterConfig,
    ClusterRunResult,
    build_front_end,
    drive_workload,
    request_lookahead,
    summarize_run,
)
from repro.errors import ConfigError, SimulationError
from repro.obs.timeline import ThreadState
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import Exponential, ServiceDistribution


class CausalityError(SimulationError):
    """The conservative protocol was violated: a cross-shard message
    would have to be delivered in a shard's already-committed past."""


#: Transports for the shard workers.
TRANSPORTS = ("process", "inline")

#: Pipeline tuning: per-shard engine events to aim for in one
#: window (big enough to amortize a pipe round-trip, small enough to
#: keep batches below pipe-buffer pathologies), and the bounds the
#: adaptive window may move between.
_TARGET_BATCH_EVENTS = 40_000
_MIN_CHUNK_ARRIVALS = 512


def shard_node_ids(nodes: int, shards: int) -> List[List[int]]:
    """Striped partition: node ``i`` lives on shard ``i % shards``."""
    if not 1 <= shards <= nodes:
        raise ConfigError(
            f"need 1..{nodes} shards for {nodes} nodes, got {shards}")
    return [list(range(s, nodes, shards)) for s in range(shards)]


# ----------------------------------------------------------------------
# client side: proxy nodes and the sharded front-end
# ----------------------------------------------------------------------
class _ProxyNode:
    """Client-side stand-in for a remote node.

    Mirrors the counters the front-end, conservation audit and obs
    snapshot read -- updated at the exact timestamps the remote events
    carry, so admission counts and busy/idle timelines equal the
    single-engine run. ``busy_cycles`` is folded
    in from the worker's final stats at the end of the run.
    """

    def __init__(self, engine: Engine, node_id: int, design) -> None:
        self.engine = engine
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self._in_flight = 0
        self._busy_cycles = 0
        self._obs_timeline = None
        self._obs_track = 0
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            prefix = session.register_source("cluster.node",
                                             self._fill_metrics)
            self._obs_timeline = session.timeline
            self._obs_track = session.register_track(
                f"{prefix}.{design.name}")

    def in_flight(self) -> int:
        return self._in_flight

    def busy_cycles(self) -> int:
        return self._busy_cycles

    def conserved(self) -> bool:
        return self.admitted == self.completed + self._in_flight

    # mirrors of ClusterNode.offer / ClusterNode._finished bookkeeping
    def mirror_admit(self) -> None:
        self.admitted += 1
        self._in_flight += 1
        if self._obs_timeline is not None and self._in_flight == 1:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.RUNNING,
                                          self.engine.now)

    def mirror_finish(self) -> None:
        self._in_flight -= 1
        self.completed += 1
        if self._obs_timeline is not None and self._in_flight == 0:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.MWAIT,
                                          self.engine.now)

    def mirror_reject(self) -> None:
        self.rejected += 1

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.admitted", self.admitted)
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.rejected", self.rejected)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles())
        registry.set(f"{prefix}.in_flight", self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<_ProxyNode {self.name} in_flight={self._in_flight}>"


class ShardedClusterService(ClusterService):
    """The cluster front-end over proxy nodes.

    Keeps every accounting rule of :class:`ClusterService` -- the
    request-wire draws happen client-side on the same per-link streams
    and the fabric counters mirror both message legs -- but the node
    work itself happens in shard workers whose rejections and
    responses are injected back as timestamped events.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: attempt id -> (request state, shard index, proxy node)
        self._attempts: Dict[int, Tuple[Any, int, _ProxyNode]] = {}
        #: attempt ids the workers rejected, consulted at delivery time
        self._remote_rejected: set = set()
        #: protocol diagnostics (windows, lookahead, slack), filled by
        #: the coordinator
        self.pdes: Dict[str, Any] = {}

    # -- outbound: the transport seam -------------------------------
    def _send_request(self, state, shard_index: int, cycles: float,
                      node, attempt_id: int) -> None:
        # same counters and same per-link draw order as Fabric.send,
        # but delivery is a local accounting event: the generation pass
        # already shipped the request itself to the owning shard
        fabric = self.fabric
        spec = fabric.link
        rng = fabric.rng_for(CLIENT, node.name)
        fabric.sent += 1
        if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
            fabric.dropped += 1
            self.request_wire_drops += 1
            if self._spans is not None:
                self._spans.attempt_request_dropped(attempt_id)
            self._attempt_failed(state, shard_index)
            return
        delay = spec.sample_delay(rng)
        fabric.latency_cycles += delay
        fabric.in_flight += 1
        self.requests_on_wire += 1
        self._attempts[attempt_id] = (state, shard_index, node)
        self.engine.after(delay, self._request_delivered, state,
                          shard_index, node, attempt_id)

    def _request_delivered(self, state, shard_index: int, node,
                           attempt_id: int) -> None:
        # the client-side image of fabric._deliver + _arrive: by the
        # conservative schedule the worker has already committed this
        # timestamp, so its admission verdict is in _remote_rejected
        fabric = self.fabric
        fabric.in_flight -= 1
        fabric.delivered += 1
        self.requests_on_wire -= 1
        if attempt_id in self._remote_rejected:
            self._remote_rejected.discard(attempt_id)
            del self._attempts[attempt_id]
            node.mirror_reject()
            self.rejected += 1
            self._attempt_failed(state, shard_index)
        else:
            node.mirror_admit()

    # -- inbound: worker batches ------------------------------------
    def apply_batch(self, rejects: Sequence[Tuple[int, int]],
                    resps: Sequence[Tuple[int, int, int]],
                    drops: Sequence[Tuple[int, int]]) -> None:
        """Inject one worker window's outputs (must be called before
        the client replays past their timestamps)."""
        engine = self.engine
        for _ts, attempt_id in rejects:
            self._remote_rejected.add(attempt_id)
        for ts, attempt_id, delay in resps:
            engine.at(ts, self._remote_finished, attempt_id, delay)
        for ts, attempt_id in drops:
            engine.at(ts, self._remote_finished_dropped, attempt_id)

    def _pop_attempt(self, attempt_id: int):
        try:
            return self._attempts.pop(attempt_id)
        except KeyError:
            raise SimulationError(
                f"shard protocol error: worker finished attempt "
                f"{attempt_id} the client never launched") from None

    def _remote_finished(self, attempt_id: int, delay: int) -> None:
        # node finish at this timestamp, then the response-wire leg,
        # with the delay the worker drew from the node->client stream
        state, shard_index, node = self._pop_attempt(attempt_id)
        node.mirror_finish()
        fabric = self.fabric
        fabric.sent += 1
        fabric.latency_cycles += delay
        fabric.in_flight += 1
        self.responses_on_wire += 1
        self.engine.after(delay, self._remote_response, state, shard_index,
                          attempt_id)

    def _remote_response(self, state, shard_index: int,
                         attempt_id: int) -> None:
        fabric = self.fabric
        fabric.in_flight -= 1
        fabric.delivered += 1
        self._response(state, shard_index, attempt_id)

    def _remote_finished_dropped(self, attempt_id: int) -> None:
        state, shard_index, node = self._pop_attempt(attempt_id)
        node.mirror_finish()
        fabric = self.fabric
        fabric.sent += 1
        fabric.dropped += 1
        self.response_wire_drops += 1
        if self._spans is not None:
            self._spans.attempt_response_dropped(attempt_id)
        self._attempt_failed(state, shard_index)


@contextmanager
def _obs_redirected(session):
    """Swap the ambient obs stack for a worker-local one while building
    shard workers.

    The client-side proxies own every ``cluster.*`` registration, and a
    worker's internals (queueing servers, ISA machines, caches) must not
    leak sources into the coordinator's session -- a sharded snapshot
    has to carry exactly the single-engine namespaces. When ``session``
    is not None the worker's internals register *there* instead, and the
    coordinator merges the harvested result back at the end of the run
    (:func:`_merge_worker_obs`); None silences them entirely.
    """
    import repro.obs as obs
    saved = obs._ACTIVE[:]
    obs._ACTIVE.clear()
    if session is not None:
        obs._ACTIVE.append(session)
    try:
        yield
    finally:
        del obs._ACTIVE[:]
        obs._ACTIVE.extend(saved)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class ShardWorker:
    """One shard: its nodes on a private engine, plus the conservative
    protocol edge (causality-checked injection, bounded advances,
    batched outputs)."""

    def __init__(self, config: ClusterConfig, seed: int,
                 node_ids: Sequence[int],
                 collect_obs: bool = False,
                 collect_spans: bool = False) -> None:
        self.engine = Engine()
        costs = CostModel()
        label = config.workload_label()
        streams = RngStreams(seed)
        resident = (config.threads_per_peer * config.nodes
                    if config.threads_per_peer > 0 else None)
        self.segments = config.segments
        self.rtt_cycles = config.rtt_cycles
        self.link = config.link
        self.nodes: Dict[int, ClusterNode] = {}
        self._response_rngs: Dict[int, Any] = {}
        # node internals (queueing servers, ISA machines) register with
        # a worker-local session when the coordinator is collecting;
        # per-node marks let export_obs ship them back per node so the
        # coordinator can re-register them in global node order
        import repro.obs as obs
        import repro.obs.spans as spans
        self.obs_session = obs.Session("shard") if collect_obs else None
        # distributed tracing: node-side span fragments land in a
        # worker-local store (attempt ids are globally unique, so the
        # coordinator's merge is a disjoint union) and ship home with
        # the final stats
        self.span_store = spans.SpanStore() if collect_spans else None
        self._node_order = list(node_ids)
        self._obs_marks: List[Tuple[int, int, int]] = []
        with _obs_redirected(self.obs_session), \
                spans._redirected(self.span_store):
            for node_id in node_ids:
                self._obs_marks.append(self._obs_mark())
                node = ClusterNode(self.engine, node_id, config.design,
                                   costs,
                                   queue_limit=config.queue_limit,
                                   resident_threads=resident,
                                   backend=config.backend,
                                   register_obs=False,
                                   coherence=(None
                                              if config.coherence == "off"
                                              else config.coherence))
                self.nodes[node_id] = node
                self._response_rngs[node_id] = streams.stream(
                    f"{label}.net.{node.name}->client")
            self._obs_marks.append(self._obs_mark())
        self._committed = 0
        self._rejects: List[Tuple[int, int]] = []
        self._resps: List[Tuple[int, int, int]] = []
        self._drops: List[Tuple[int, int]] = []

    # -- protocol edge ----------------------------------------------
    def inject(self,
               reqs: Sequence[Tuple[int, int, int, int, float]]) -> None:
        """Receive shipped requests (send_ts, deliver_ts, attempt_id,
        node_id, service cycles)."""
        engine = self.engine
        committed = self._committed
        for send_ts, deliver_ts, attempt_id, node_id, cycles in reqs:
            if deliver_ts <= committed:
                raise CausalityError(
                    f"request {attempt_id} would be delivered at "
                    f"t={deliver_ts}, but this shard has already "
                    f"committed t={committed}")
            node = self.nodes[node_id]
            if send_ts > committed:
                # stage the scheduling at the original send time so the
                # engine's insertion order -- its same-timestamp
                # tie-break -- matches the single-engine run
                engine.at(send_ts, self._deliver_later, deliver_ts,
                          attempt_id, node, cycles)
            else:
                engine.at(deliver_ts, self._deliver, attempt_id, node,
                          cycles)

    def advance(self, until: int) -> Tuple[List, List, List, int]:
        """Run through ``until`` (inclusive) and return this window's
        (rejects, responses, response_drops, total events processed)."""
        if until < self._committed:
            raise CausalityError(
                f"cannot advance to t={until}: already committed "
                f"t={self._committed}")
        self.engine.run(until=until)
        self._committed = until
        batch = (self._rejects, self._resps, self._drops,
                 self.engine.events_processed)
        self._rejects, self._resps, self._drops = [], [], []
        return batch

    def final_stats(self) -> Dict[int, Tuple[int, int, int, int, int]]:
        return {node_id: (node.admitted, node.completed, node.rejected,
                          node.in_flight(), node.busy_cycles())
                for node_id, node in self.nodes.items()}

    # -- observability export ---------------------------------------
    def _obs_mark(self) -> Tuple[int, int, int]:
        session = self.obs_session
        if session is None:
            return (0, 0, 0)
        return (len(session.sources), len(session.machines),
                session._next_track)

    def export_obs(self) -> Optional[Dict[str, Any]]:
        """Everything the worker-local session collected, as picklable
        per-node blocks (see :mod:`repro.obs.merge`): harvested source
        fills, the registry entries each source wrote, timeline rows,
        and machine digests."""
        session = self.obs_session
        if session is None:
            return None
        from repro.obs.merge import (harvest_source, machine_digest,
                                     split_registry)
        prefixes = [prefix for prefix, _fill in session.sources]
        per_prefix, leftover = split_registry(session.registry, prefixes)
        timeline = session.timeline
        track_node: Dict[int, int] = {}
        blocks: Dict[int, Dict[str, Any]] = {}
        for pos, node_id in enumerate(self._node_order):
            s0, m0, t0 = self._obs_marks[pos]
            s1, m1, t1 = self._obs_marks[pos + 1]
            for track in range(t0, t1):
                track_node[track] = node_id
            blocks[node_id] = {
                "sources": [{
                    "kind": session.source_kinds[i],
                    "prefix": session.sources[i][0],
                    "fill": harvest_source(session.sources[i][1]),
                    "registry": per_prefix[session.sources[i][0]],
                } for i in range(s0, s1)],
                "tracks": [(track, timeline.core_names.get(track, ""))
                           for track in range(t0, t1)],
                "spans": [], "instants": [], "open": [],
                "machines": [machine_digest(machine)
                             for machine in session.machines[m0:m1]],
            }
        for span in timeline.spans:
            blocks[track_node[span.core_id]]["spans"].append(
                (span.core_id, span.ptid, span.state, span.begin, span.end))
        for instant in timeline.instants:
            blocks[track_node[instant.core_id]]["instants"].append(
                (instant.core_id, instant.ptid, instant.name, instant.at))
        for core_id, ptid, state, begin in timeline.open_spans():
            blocks[track_node[core_id]]["open"].append(
                (core_id, ptid, state, begin))
        return {"nodes": blocks, "extra": leftover,
                "dropped": timeline.dropped}

    def export_spans(self) -> Optional[Dict[str, Any]]:
        """The worker's span fragments, picklable, or None when
        tracing is off."""
        if self.span_store is None:
            return None
        return self.span_store.export_fragments()

    # -- simulation callbacks ---------------------------------------
    def _deliver_later(self, deliver_ts: int, attempt_id: int,
                       node: ClusterNode, cycles: float) -> None:
        self.engine.at(deliver_ts, self._deliver, attempt_id, node, cycles)

    def _deliver(self, attempt_id: int, node: ClusterNode,
                 cycles: float) -> None:
        per_segment = [max(1.0, cycles) / self.segments] * self.segments
        accepted = node.offer(
            attempt_id, per_segment, self.rtt_cycles,
            on_done=lambda: self._finished(attempt_id, node))
        if not accepted:
            self._rejects.append((self.engine.now, attempt_id))

    def _finished(self, attempt_id: int, node: ClusterNode) -> None:
        # the node->client wire draws happen worker-side on the same
        # per-link stream the single-engine fabric would use
        spec = self.link
        rng = self._response_rngs[node.node_id]
        now = self.engine.now
        if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
            self._drops.append((now, attempt_id))
        else:
            self._resps.append((now, attempt_id, spec.sample_delay(rng)))


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class _InlineShard:
    """In-process transport: the worker runs synchronously on the
    coordinator's thread. No parallelism -- this is the debug and
    determinism-test mode, and the reference the process transport
    must match byte for byte."""

    def __init__(self, config: ClusterConfig, seed: int,
                 node_ids: Sequence[int], collect_obs: bool,
                 collect_spans: bool) -> None:
        self.worker = ShardWorker(config, seed, node_ids,
                                  collect_obs=collect_obs,
                                  collect_spans=collect_spans)
        self._batch: Optional[Tuple] = None
        self.obs_payload: Optional[Dict[str, Any]] = None
        self.span_payload: Optional[Dict[str, Any]] = None

    def post_reqs(self, reqs: Sequence) -> None:
        if reqs:
            self.worker.inject(reqs)

    def post_advance(self, until: int) -> None:
        self._batch = self.worker.advance(until)

    def recv_batch(self) -> Tuple:
        batch, self._batch = self._batch, None
        return batch

    def finish(self) -> Dict[int, Tuple]:
        self.obs_payload = self.worker.export_obs()
        self.span_payload = self.worker.export_spans()
        return self.worker.final_stats()

    def stop(self) -> None:
        pass


def _shard_main(conn, config: ClusterConfig, seed: int,
                node_ids: Sequence[int], collect_obs: bool,
                collect_spans: bool) -> None:
    """Worker-process entry point: a command loop over the pipe."""
    try:
        worker = ShardWorker(config, seed, node_ids,
                             collect_obs=collect_obs,
                             collect_spans=collect_spans)
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "reqs":
                worker.inject(msg[1])
            elif tag == "advance":
                conn.send(("batch",) + worker.advance(msg[1]))
            elif tag == "finish":
                conn.send(("stats", worker.final_stats(),
                           worker.export_obs(), worker.export_spans()))
            elif tag == "stop":
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown shard command {tag!r}")
    except EOFError:  # coordinator died; nothing left to report to
        return
    except Exception:  # pragma: no cover - shipped to the coordinator
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ProcessShard:
    """Worker-process transport over a duplex pipe.

    The protocol is strict request-reply per window (requests and the
    advance command flow only while the worker is idle at the barrier,
    and exactly one batch reply is collected per advance), which makes
    pipe-buffer deadlock impossible by construction. A worker that
    exits mid-run breaks the pipe; that surfaces as a
    :class:`SimulationError` naming the shard, its pid and exit code.
    """

    def __init__(self, index: int, config: ClusterConfig, seed: int,
                 node_ids: Sequence[int], ctx, collect_obs: bool,
                 collect_spans: bool) -> None:
        self.index = index
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_main,
                                args=(child, config, seed, list(node_ids),
                                      collect_obs, collect_spans),
                                daemon=True)
        self.proc.start()
        child.close()
        self.obs_payload: Optional[Dict[str, Any]] = None
        self.span_payload: Optional[Dict[str, Any]] = None

    def post_reqs(self, reqs: Sequence) -> None:
        if reqs:
            self._send(("reqs", reqs))

    def post_advance(self, until: int) -> None:
        self._send(("advance", until))

    def _send(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except OSError as err:
            # the worker is gone; one that failed left its traceback in
            # the pipe, which _recv raises
            self._recv()
            raise self._lost() from err

    def _recv(self) -> Tuple:
        try:
            msg = self.conn.recv()
        except (EOFError, OSError) as err:
            raise self._lost() from err
        if msg[0] == "error":
            raise SimulationError(
                f"shard {self.index} worker failed:\n{msg[1]}")
        return msg

    def _lost(self) -> SimulationError:
        self.proc.join(timeout=5)
        return SimulationError(
            f"shard {self.index} worker (pid {self.proc.pid}) exited "
            f"mid-run with exit code {self.proc.exitcode}")

    def recv_batch(self) -> Tuple:
        msg = self._recv()
        if msg[0] != "batch":  # pragma: no cover - protocol guard
            raise SimulationError(f"expected a batch, got {msg[0]!r}")
        return msg[1:]

    def finish(self) -> Dict[int, Tuple]:
        self._send(("finish",))
        msg = self._recv()
        if msg[0] != "stats":  # pragma: no cover - protocol guard
            raise SimulationError(f"expected stats, got {msg[0]!r}")
        _tag, stats, self.obs_payload, self.span_payload = msg
        return stats

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
            self.proc.join(timeout=5)


# ----------------------------------------------------------------------
# the pipeline's engine-less outbound generation
# ----------------------------------------------------------------------
class _NodeStub:
    """Identity-only node for the generation pass's balancer."""

    __slots__ = ("node_id", "name")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.name = f"node{node_id}"


def _outbound_chunks(config: ClusterConfig, seed: int,
                     distribution: Optional[ServiceDistribution],
                     horizon: int, nshards: int,
                     arrivals_per_chunk: int = _MIN_CHUNK_ARRIVALS):
    """Replay the client's outbound draw sequence without an engine.

    Yields ``(frontier, per_shard_requests)``: after a chunk is
    consumed, every request sent at or before ``frontier`` has been
    produced. Draw-for-draw identical to the live front-end: service
    draws, then per shard a balancer pick and the request-wire
    drop/delay draws, then the next inter-arrival gap -- each on the
    same named stream the live run uses, so both passes see identical
    sequences.
    """
    label = config.workload_label()
    streams = RngStreams(seed)
    stubs = [_NodeStub(node_id) for node_id in range(config.nodes)]
    balancer = LoadBalancer(stubs, config.policy,
                            rng=streams.stream(f"{label}.lb"))
    spec = config.link
    rngs = {stub.node_id:
            streams.stream(f"{label}.net.{CLIENT}->{stub.name}")
            for stub in stubs}
    arrivals = PoissonArrivals(config.mean_gap_cycles())
    gaps = arrivals.gaps(streams.stream(f"{label}.arrivals"))
    service_rng = streams.stream(f"{label}.service")
    distribution = distribution or Exponential(config.mean_service_cycles)

    now = 0
    issued = 0
    attempt = 0
    chunk: List[List[Tuple[int, int, int, int, float]]] = \
        [[] for _ in range(nshards)]
    pending = 0
    while issued < config.requests:
        now += max(1, int(round(next(gaps))))
        if now > horizon:
            break
        issued += 1
        draws = [distribution.sample(service_rng)
                 for _ in range(config.fanout)]
        for cycles in draws:
            node = balancer.pick()
            attempt += 1
            rng = rngs[node.node_id]
            if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
                continue  # dropped on the request wire: never ships
            delay = spec.sample_delay(rng)
            chunk[node.node_id % nshards].append(
                (now, now + delay, attempt, node.node_id, cycles))
        pending += 1
        if pending >= arrivals_per_chunk:
            yield now, chunk
            chunk = [[] for _ in range(nshards)]
            pending = 0
    yield horizon, chunk


# ----------------------------------------------------------------------
# the coordinator's schedule
# ----------------------------------------------------------------------
def _min_slack(per_shard: Sequence[Sequence[Tuple]],
               current: Optional[int]) -> Optional[int]:
    for reqs in per_shard:
        for send_ts, deliver_ts, *_rest in reqs:
            slack = deliver_ts - send_ts
            if current is None or slack < current:
                current = slack
    return current


def _run_pipeline(service: ShardedClusterService, shards: Sequence,
                  config: ClusterConfig, seed: int,
                  distribution: Optional[ServiceDistribution],
                  horizon: int) -> Dict[str, Any]:
    """The generation pass streams requests ahead, workers run adaptive
    windows, and the client replays window k while the workers compute
    window k+1."""
    engine = service.engine
    lookahead = request_lookahead(config)
    nshards = len(shards)
    chunks = _outbound_chunks(config, seed, distribution, horizon, nshards)
    frontier = 0
    exhausted = False
    min_slack: Optional[int] = None

    def generate_to(target: int) -> None:
        nonlocal frontier, exhausted, min_slack
        while not exhausted and frontier < target:
            try:
                frontier, per_shard = next(chunks)
            except StopIteration:
                exhausted = True
                frontier = horizon
                return
            min_slack = _min_slack(per_shard, min_slack)
            for shard, reqs in zip(shards, per_shard):
                shard.post_reqs(reqs)

    # initial window: ~a chunk of arrivals, never below the lookahead
    window = max(lookahead,
                 int(config.mean_gap_cycles() * _MIN_CHUNK_ARRIVALS))
    max_window = max(window, horizon // 4)
    windows = 0
    last_events = [0] * nshards

    target = min(horizon, window)
    generate_to(target)
    for shard in shards:
        shard.post_advance(target)
    while True:
        batches = [shard.recv_batch() for shard in shards]
        deltas = []
        for i, (rejects, resps, drops, events) in enumerate(batches):
            service.apply_batch(rejects, resps, drops)
            deltas.append(events - last_events[i])
            last_events[i] = events
        finished = target
        windows += 1
        if finished < horizon:
            # adapt toward the target batch size, then launch the next
            # window before replaying this one (the overlap)
            busiest = max(deltas)
            if busiest < _TARGET_BATCH_EVENTS // 2:
                window = min(max_window, window * 2)
            elif busiest > _TARGET_BATCH_EVENTS * 2:
                window = max(lookahead, window // 2)
            target = min(horizon, finished + window)
            generate_to(target)
            for shard in shards:
                shard.post_advance(target)
            engine.run(until=finished)
        else:
            engine.run(until=finished)
            break
    return {"lookahead": lookahead, "windows": windows,
            "min_slack": min_slack, "worker_events": sum(last_events)}


def _fold_final_stats(service: ShardedClusterService,
                      proxies: Sequence[_ProxyNode],
                      finals: Sequence[Dict[int, Tuple]]) -> None:
    """Cross-check every proxy mirror against the worker's ground truth
    and fold in the one quantity only the worker knows (busy cycles)."""
    merged: Dict[int, Tuple] = {}
    for stats in finals:
        merged.update(stats)
    for proxy in proxies:
        admitted, completed, rejected, in_flight, busy = merged[proxy.node_id]
        mirror = (proxy.admitted, proxy.completed, proxy.rejected,
                  proxy.in_flight())
        truth = (admitted, completed, rejected, in_flight)
        if mirror != truth:
            raise SimulationError(
                f"shard mirror diverged for {proxy.name}: client saw "
                f"(admitted, completed, rejected, in_flight)={mirror}, "
                f"worker reported {truth}")
        proxy._busy_cycles = busy


def _merge_worker_obs(session, payloads: Sequence[Optional[Dict]]) -> None:
    """Replay the workers' harvested observability into the client
    session, in global node order, so per-kind source indices (and with
    them every metric name) come out exactly as the single-engine run
    would have allocated them. Byte-identical for both backends: every
    digested quantity is a pure function of the simulation history
    (host-engine artifacts are excluded at the harvest itself, see
    :mod:`repro.obs.merge`)."""
    from repro.obs.merge import import_timeline, merge_at, replay_source
    blocks: Dict[int, Dict[str, Any]] = {}
    extras = []
    dropped = 0
    for payload in payloads:
        if payload is None:
            continue
        blocks.update(payload["nodes"])
        extras.append(payload["extra"])
        dropped += payload["dropped"]
    for node_id in sorted(blocks):
        block = blocks[node_id]
        renames: List[Tuple[str, str]] = []
        for source in block["sources"]:
            prefix = session.register_source(source["kind"],
                                             replay_source(source["fill"]))
            renames.append((source["prefix"], prefix))
            merge_at(session.registry, prefix, source["registry"])
        idmap: Dict[int, int] = {}
        for local_id, name in block["tracks"]:
            idmap[local_id] = session.register_track(
                _rename_prefix(name, renames))
        import_timeline(session.timeline, block["spans"],
                        block["instants"], block["open"], idmap)
        for digest in block["machines"]:
            session.register_machine(digest)
    for extra in extras:
        session.registry.merge(extra)
    session.timeline.dropped += dropped


def _rename_prefix(name: str, renames: Sequence[Tuple[str, str]]) -> str:
    """Map a worker-local metric/track name onto its global prefix."""
    for local, swap in renames:
        if name == local:
            return swap
        if name.startswith(local + "."):
            return swap + name[len(local):]
    return name


def run_sharded(config: ClusterConfig, seed: int = 0xC0FFEE,
                distribution: Optional[ServiceDistribution] = None,
                horizon: Optional[int] = None,
                transport: str = "process") -> ClusterRunResult:
    """Run one cluster partitioned over shard engines.

    Byte-identical to :func:`~repro.cluster.run.run_cluster` with
    ``shards=1`` (same streams, same draw order, same summary); the
    mirror cross-check at the end audits the protocol on every run.
    ``config.shards`` must be at least 2, which
    :class:`~repro.cluster.run.ClusterConfig` allows for state-free
    routing only.
    """
    if config.shards < 2:
        raise ConfigError(
            f"run_sharded needs shards >= 2, got {config.shards}; "
            f"run_cluster runs shards=1 on one engine")
    if transport not in TRANSPORTS:
        raise ConfigError(
            f"unknown shard transport {transport!r}; known: "
            f"{', '.join(TRANSPORTS)}")
    horizon = horizon if horizon is not None else config.horizon()
    partitions = shard_node_ids(config.nodes, config.shards)

    streams = RngStreams(seed)
    engine = Engine()
    proxies = [_ProxyNode(engine, node_id, config.design)
               for node_id in range(config.nodes)]
    service = build_front_end(config, streams, engine, proxies,
                              ShardedClusterService)
    drive_workload(service, config, streams, distribution)

    import repro.obs as obs
    import repro.obs.spans as spans
    session = obs.active()
    collect_obs = session is not None
    span_store = spans.active()
    collect_spans = span_store is not None
    if (transport == "process"
            and multiprocessing.current_process().daemon):
        # daemonic pool workers (the parallel evaluation runner) may
        # not fork children; inline shards produce the same bytes
        transport = "inline"
    if transport == "inline":
        shards: List[Any] = [_InlineShard(config, seed, ids, collect_obs,
                                          collect_spans)
                             for ids in partitions]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        shards = [_ProcessShard(index, config, seed, ids, ctx,
                                collect_obs, collect_spans)
                  for index, ids in enumerate(partitions)]
    try:
        stats = _run_pipeline(service, shards, config, seed, distribution,
                              horizon)
        finals = [shard.finish() for shard in shards]
    finally:
        for shard in shards:
            shard.stop()
    _fold_final_stats(service, proxies, finals)
    if collect_obs:
        _merge_worker_obs(session, [shard.obs_payload for shard in shards])
    if collect_spans:
        for shard in shards:
            span_store.merge_fragments(shard.span_payload)
    stats.update({"transport": transport, "shards": config.shards})
    service.pdes = stats
    return ClusterRunResult(config=config, engine=engine, service=service,
                            summary=summarize_run(service))
