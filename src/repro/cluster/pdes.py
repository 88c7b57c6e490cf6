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
and the client side runs on the coordinating engine: the unmodified
:class:`~repro.cluster.service.ClusterService` and
:class:`~repro.cluster.fabric.Fabric` (with the balancer, workload and
latency recorder) over one proxy node per remote node. A proxy is a
:class:`~repro.cluster.node.ClusterNode` whose server is its shard
worker: it admits or sheds each attempt by the worker's verdict and
finishes it at the worker's completion time. Both wires are therefore
drawn by the client's own fabric on its per-link streams, and a worker
ships home only ``(node, attempt)`` rejections and
``(time, node, attempt)`` completions.

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
the draws of the single-engine run, in the same per-stream order. A
worker draws no random numbers at all. The summary is byte-identical
to ``shards=1`` (asserted by tests at small scale and by the mirror
cross-check on every run). The one caveat: when two events collide on
the *same cycle* of one shard engine, the dispatch tie-break is
insertion order, which a partitioned run cannot always reproduce;
injection is staged at the original send time to make the insertion
order match in all but pathological collisions.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import repro.obs.spans as spans
from repro.arch.costs import CostModel
from repro.cluster.balancer import LoadBalancer
from repro.cluster.node import ClusterNode
from repro.cluster.service import CLIENT, segment_split
from repro.cluster.run import (
    ClusterConfig,
    ClusterRunResult,
    build_front_end,
    drive_workload,
    make_node,
    request_lookahead,
    summarize_run,
)
from repro.errors import ConfigError, SimulationError
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
# client side: proxy nodes
# ----------------------------------------------------------------------
class _ProxyNode(ClusterNode):
    """A remote node's client-side image: a :class:`ClusterNode` whose
    server is the shard worker running the node.

    The counters, obs registration and busy/idle edges are
    ``ClusterNode``'s own. The proxy keeps only what the worker
    reports: which attempts it shed (``offer`` returns that verdict),
    the completion of each admitted attempt (:meth:`finish`, scheduled
    at the worker's timestamp) and, at the end of the run, the busy
    cycles.
    """

    def __init__(self, engine: Engine, node_id: int, design) -> None:
        # the worker records the node-side span fragments
        with spans._redirected(None):
            super().__init__(engine, node_id, design, server=self)
        #: attempts the worker shed, consulted at delivery time
        self.shed: Set[int] = set()
        self._on_done: Dict[int, Callable[[], None]] = {}
        self.busy = 0

    def offer(self, request_id: int, segment_cycles: Sequence[float],
              rtt_cycles: int,
              on_done: Optional[Callable[[], None]] = None) -> bool:
        if request_id in self.shed:
            self.shed.discard(request_id)
            self.rejected += 1
            return False
        return super().offer(request_id, segment_cycles, rtt_cycles,
                             on_done)

    # -- the server half: ClusterNode.offer submits here --------------
    def submit(self, request_id: int, segment_cycles: List[float],
               rtt_cycles: int, on_done: Callable[[], None]) -> None:
        self._on_done[request_id] = on_done

    def finish(self, attempt_id: int) -> None:
        """The worker's node finished ``attempt_id`` now."""
        on_done = self._on_done.pop(attempt_id, None)
        if on_done is None:
            raise SimulationError(
                f"shard protocol error: {self.name} finished attempt "
                f"{attempt_id}, which it never admitted")
        on_done()

    def cpu_busy_cycles(self) -> int:
        return self.busy


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

    def __init__(self, config: ClusterConfig, node_ids: Sequence[int],
                 collect_obs: bool = False,
                 collect_spans: bool = False) -> None:
        self.engine = Engine()
        costs = CostModel()
        self.segments = config.segments
        self.rtt_cycles = config.rtt_cycles
        self.nodes: Dict[int, ClusterNode] = {}
        # node internals (queueing servers, ISA machines) register with
        # a worker-local session when the coordinator is collecting;
        # per-node marks let export_obs ship them back per node so the
        # coordinator can re-register them in global node order
        import repro.obs as obs
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
                self.nodes[node_id] = make_node(config, self.engine,
                                                node_id, costs,
                                                register_obs=False)
            self._obs_marks.append(self._obs_mark())
        self._committed = 0
        self._shed: List[Tuple[int, int]] = []
        self._done: List[Tuple[int, int, int]] = []

    # -- protocol edge ----------------------------------------------
    def serve(self, msg: Tuple) -> Optional[Tuple]:
        """Apply one coordinator command and return its reply, if it has
        one -- the command handler behind both transports."""
        tag = msg[0]
        if tag == "reqs":
            self.inject(msg[1])
            return None
        if tag == "advance":
            return ("batch",) + self.advance(msg[1])
        if tag == "finish":
            return ("stats", self.final_stats(), self.export_obs(),
                    self.export_spans())
        raise SimulationError(f"unknown shard command {tag!r}")

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

    def advance(self, until: int) -> Tuple[List, List, int]:
        """Run through ``until`` (inclusive) and return this window's
        ``(node, attempt)`` rejections, ``(time, node, attempt)``
        completions, and the total events processed."""
        if until < self._committed:
            raise CausalityError(
                f"cannot advance to t={until}: already committed "
                f"t={self._committed}")
        self.engine.run(until=until)
        self._committed = until
        batch = (self._shed, self._done, self.engine.events_processed)
        self._shed, self._done = [], []
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
        accepted = node.offer(
            attempt_id, segment_split(cycles, self.segments),
            self.rtt_cycles,
            on_done=lambda: self._done.append(
                (self.engine.now, node.node_id, attempt_id)))
        if not accepted:
            self._shed.append((node.node_id, attempt_id))


# ----------------------------------------------------------------------
# transports: both route every command through ShardWorker.serve
# ----------------------------------------------------------------------
class _InlineShard:
    """In-process transport: the worker serves each command
    synchronously on the coordinator's thread. No parallelism -- the
    test seam, and the fallback for a process that may not fork."""

    def __init__(self, *worker_args: Any) -> None:
        self.worker = ShardWorker(*worker_args)
        self._replies: List[Tuple] = []

    def send(self, msg: Tuple) -> None:
        reply = self.worker.serve(msg)
        if reply is not None:
            self._replies.append(reply)

    def recv(self) -> Tuple:
        return self._replies.pop(0)

    def stop(self) -> None:
        pass


def _shard_main(conn, worker_args: Tuple) -> None:
    """Worker-process entry point: serve commands off the pipe."""
    try:
        worker = ShardWorker(*worker_args)
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            reply = worker.serve(msg)
            if reply is not None:
                conn.send(reply)
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

    def __init__(self, index: int, ctx, worker_args: Tuple) -> None:
        self.index = index
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_main,
                                args=(child, worker_args), daemon=True)
        self.proc.start()
        child.close()

    def send(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except OSError as err:
            # the worker is gone; one that failed left its traceback in
            # the pipe, which recv raises
            self.recv()
            raise self._lost() from err

    def recv(self) -> Tuple:
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

    This loop is the one place the sharded run restates the front-end
    (``drive_workload``, ``ClusterService._launch`` and
    ``Fabric.send``), and it stays because it is cheap: on E14's
    256-node sharded cell (38,400 requests shipped) it takes 0.13 s,
    while pushing the same launches through a ``ClusterService`` on an
    engine takes 0.80 s (best of 3 on a 2-vCPU Xeon host). The
    byte-identity tests catch any drift between the two.
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


def _run_pipeline(engine: Engine, proxies: Sequence[_ProxyNode],
                  shards: Sequence, config: ClusterConfig, seed: int,
                  distribution: Optional[ServiceDistribution],
                  horizon: int) -> Dict[str, Any]:
    """The generation pass streams requests ahead, workers run adaptive
    windows, and the client replays window k while the workers compute
    window k+1."""
    lookahead = request_lookahead(config)
    nshards = len(shards)
    chunks = _outbound_chunks(config, seed, distribution, horizon, nshards)
    frontier = 0
    exhausted = False
    min_slack: Optional[int] = None

    def advance_to(target: int) -> None:
        nonlocal frontier, exhausted, min_slack
        while not exhausted and frontier < target:
            try:
                frontier, per_shard = next(chunks)
            except StopIteration:
                exhausted = True
                frontier = horizon
                break
            min_slack = _min_slack(per_shard, min_slack)
            for shard, reqs in zip(shards, per_shard):
                if reqs:
                    shard.send(("reqs", reqs))
        for shard in shards:
            shard.send(("advance", target))

    # initial window: ~a chunk of arrivals, never below the lookahead
    window = max(lookahead,
                 int(config.mean_gap_cycles() * _MIN_CHUNK_ARRIVALS))
    max_window = max(window, horizon // 4)
    windows = 0
    last_events = [0] * nshards

    target = min(horizon, window)
    advance_to(target)
    while True:
        busiest = 0
        for i, shard in enumerate(shards):
            _tag, shed, done, events = shard.recv()
            for node_id, attempt_id in shed:
                proxies[node_id].shed.add(attempt_id)
            for ts, node_id, attempt_id in done:
                engine.at(ts, proxies[node_id].finish, attempt_id)
            busiest = max(busiest, events - last_events[i])
            last_events[i] = events
        finished = target
        windows += 1
        if finished < horizon:
            # adapt toward the target batch size, then launch the next
            # window before replaying this one (the overlap)
            if busiest < _TARGET_BATCH_EVENTS // 2:
                window = min(max_window, window * 2)
            elif busiest > _TARGET_BATCH_EVENTS * 2:
                window = max(lookahead, window // 2)
            target = min(horizon, finished + window)
            advance_to(target)
        engine.run(until=finished)
        if finished == horizon:
            break
    return {"lookahead": lookahead, "windows": windows,
            "min_slack": min_slack, "worker_events": sum(last_events)}


def _fold_final_stats(proxies: Sequence[_ProxyNode],
                      finals: Sequence[Dict[int, Tuple]]) -> None:
    """Cross-check every proxy's counters against the worker's ground
    truth and fold in the one quantity only the worker knows (busy
    cycles)."""
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
        proxy.busy = busy


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
    routing only. The protocol diagnostics land in the result's
    ``pdes`` dict.
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
    streams = RngStreams(seed)
    engine = Engine()
    proxies = [_ProxyNode(engine, node_id, config.design)
               for node_id in range(config.nodes)]
    service = build_front_end(config, streams, engine, proxies)
    drive_workload(service, config, streams, distribution)

    import repro.obs as obs
    session = obs.active()
    span_store = spans.active()
    if (transport == "process"
            and multiprocessing.current_process().daemon):
        # daemonic pool workers (the parallel evaluation runner) may
        # not fork children; inline shards produce the same bytes
        transport = "inline"
    worker_args = [(config, ids, session is not None,
                    span_store is not None)
                   for ids in shard_node_ids(config.nodes, config.shards)]
    if transport == "inline":
        shards: List[Any] = [_InlineShard(*args) for args in worker_args]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        shards = [_ProcessShard(index, ctx, args)
                  for index, args in enumerate(worker_args)]
    try:
        audit = _run_pipeline(engine, proxies, shards, config, seed,
                              distribution, horizon)
        for shard in shards:
            shard.send(("finish",))
        _tags, finals, obs_payloads, span_payloads = zip(
            *[shard.recv() for shard in shards])
    finally:
        for shard in shards:
            shard.stop()
    _fold_final_stats(proxies, finals)
    if session is not None:
        _merge_worker_obs(session, obs_payloads)
    if span_store is not None:
        for payload in span_payloads:
            span_store.merge_fragments(payload)
    audit.update({"transport": transport, "shards": config.shards})
    return ClusterRunResult(config=config, engine=engine, service=service,
                            summary=summarize_run(service), pdes=audit)
