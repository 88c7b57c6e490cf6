"""RPC server designs over a shared segmented-request workload.

A request is ``segments`` bursts of CPU work separated by remote calls
of ``rtt_cycles`` each (during which the request holds no CPU). The
three designs differ in (a) how the CPU is shared among runnable
segments and (b) what each block/unblock transition costs:

=============  ==============  =======================================
design         CPU discipline  per-transition overhead (CPU cycles)
=============  ==============  =======================================
hw-threads     PS              hardware wakeup (monitor + ptid start)
sw-threads     PS              software: scheduler + switch + pollution
                               on block *and* on wake
event-loop     FIFO            callback dispatch (tens of cycles), but
                               run-to-completion -- long handlers block
                               everyone (head-of-line)
=============  ==============  =======================================

The sw-threads overhead consumes server capacity, so its saturation
point drops below the other two -- the paper's "multiplexing a large
number of software threads onto a small number of hardware threads is
expensive". The event loop matches hw-threads on throughput but is the
"confusing control flow" [78] option and suffers under high service
variability from head-of-line blocking, which the latency distribution
shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    # type-only: importing the module at runtime invites accidental use
    # of the *global* RNG (random.random() etc.), which would break
    # seed-stability -- every draw must come from RngStreams-provided
    # generators passed in explicitly
    import random

from repro.analysis.stats import LatencyRecorder
from repro.arch.costs import CostModel
from repro.errors import ConfigError, require_int
from repro.kernel.sched import (
    FifoServer,
    ProcessorSharingServer,
    QueueingServer,
)
from repro.sim.engine import Engine
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.service import ServiceDistribution


#: Crowding normalization: scheduler and pollution scaling are
#: expressed per CROWD_UNIT resident software threads.
CROWD_UNIT = 8
#: Beyond this many resident threads the working sets have evicted the
#: whole cache already -- one more thread cannot pollute further.
CROWD_CACHE_CAP = 64


@dataclass(frozen=True)
class ServerDesign:
    """A named (discipline, overhead-model) pair.

    ``crowd`` is the number of *other* software threads resident on the
    node (idle pool workers plus concurrently active requests). Only
    sw-threads pays for it: the kernel runqueue grows (pick-next and
    queue maintenance scale ~log in runnable threads) and every
    additional resident working set evicts more cache per switch, up to
    :data:`CROWD_CACHE_CAP` where the cache is fully churned. This is
    the paper's Section 1 claim quantified: "multiplexing a large
    number of software threads onto a small number of hardware threads
    is expensive ... suffering many cache misses along the way".
    Hardware threads keep per-context state (no switch, no shared
    runqueue walk) and the event loop runs one stack to completion, so
    neither design's overhead depends on ``crowd``.
    """

    name: str
    discipline: str             # "ps" | "fifo"

    def transition_overhead_cycles(self, costs: CostModel,
                                   crowd: int = 0) -> int:
        """CPU cycles charged per block/unblock transition."""
        if self.name == "hw-threads":
            return costs.hw_wakeup_cycles("rf")
        if self.name == "sw-threads":
            # block: switch away; wake: scheduler + switch back (+ the
            # cache pollution both sides eat)
            base = (costs.sw_switch_cycles
                    + costs.scheduler_cycles + costs.sw_switch_cycles
                    + costs.cache_pollution_cycles)
            if crowd > 0:
                base += int(costs.scheduler_cycles
                            * math.log2(1 + crowd / CROWD_UNIT))
                base += (costs.cache_pollution_cycles
                         * min(crowd, CROWD_CACHE_CAP) // CROWD_UNIT)
            return base
        if self.name == "event-loop":
            return 50  # enqueue continuation + dispatch callback
        raise ConfigError(f"unknown design {self.name!r}")


HW_THREADS = ServerDesign("hw-threads", "ps")
SW_THREADS = ServerDesign("sw-threads", "ps")
EVENT_LOOP = ServerDesign("event-loop", "fifo")


class _InflightRequest:
    """One request's segment walk as a callback chain.

    The queueing server takes each segment as bare cycles
    (``offer_segment``) and calls :meth:`segment_done` when it
    completes, so a segment costs no :class:`Request` record, no
    payload and no copy of the segment list. Between segments the
    request holds one RTT timer; that is the only engine event it
    schedules itself. The kick-off is a call, not an event, unless
    another event is due at the arrival cycle
    (:meth:`RpcServerModel.submit`).
    """

    __slots__ = ("model", "req_id", "segments", "rtt", "on_done",
                 "arrived", "index")

    def __init__(self, model: "RpcServerModel", req_id: int,
                 segments: Sequence[float], rtt: int,
                 on_done: Optional[Callable[[], None]]):
        self.model = model
        self.req_id = req_id
        self.segments = segments
        self.rtt = rtt if rtt > 1 else 1
        self.on_done = on_done
        self.arrived = 0
        self.index = 0

    def start(self) -> None:
        model = self.model
        model.active += 1
        if model.active > model.peak_concurrency:
            model.peak_concurrency = model.active
        self.arrived = model.engine._now
        self._offer_segment()

    def _offer_segment(self) -> None:
        model = self.model
        # re-read each segment: the crowding term tracks how many
        # requests are resident *now*, not at arrival
        overhead = model.segment_overhead_cycles()
        seg = int(round(self.segments[self.index]))
        if seg < 1:
            seg = 1
        if model.span_sink is not None:
            # per segment, because the crowd-scaled overhead is re-read
            # each time: the trace carries the exact tax this segment
            # will pay, not the arrival-time estimate
            model.span_sink.node_demand(self.req_id, seg, overhead, 0)
        model.cpu.offer_segment(seg + overhead, self)

    def segment_done(self) -> None:
        """The queueing server finished the current segment now."""
        self.index += 1
        model = self.model
        if self.index < len(self.segments):
            # blocked on the remote call, holding no CPU
            if model.span_sink is not None:
                model.span_sink.node_demand(self.req_id, 0, 0, self.rtt)
            engine = model.engine
            engine.at(engine._now + self.rtt, self._offer_segment)
            return
        model.active -= 1
        model.completed += 1
        model.recorder.record(model.engine._now - self.arrived)
        if self.on_done is not None:
            self.on_done()


class RpcServerModel:
    """One server instance executing segmented requests.

    ``resident_threads`` (``None`` by default, set by the cluster
    layer) models a thread-per-connection worker pool: that many
    software threads stay resident on the node even when idle, and the
    sw-threads per-transition overhead is charged at crowd =
    ``resident_threads`` + concurrently active requests (see
    :meth:`ServerDesign.transition_overhead_cycles`). Cluster nodes
    size the pool to their fan-in -- peers times connections per peer
    -- which is how the transition tax grows with cluster size while
    hw-threads, with per-context hardware state, stays flat. ``None``
    disables crowding entirely (the single-server E09 model).
    """

    def __init__(self, engine: Engine, design: ServerDesign,
                 costs: Optional[CostModel] = None, cores: int = 1,
                 resident_threads: Optional[int] = None):
        require_int("cores", cores, 1)
        self.engine = engine
        self.design = design
        self.costs = costs or CostModel()
        if resident_threads is not None:
            require_int("resident_threads", resident_threads, 0)
        self.cores = cores
        self.resident_threads = resident_threads
        self.recorder = LatencyRecorder(f"{design.name}.latency")
        self.completed = 0
        self.active = 0
        self.peak_concurrency = 0
        #: distributed-tracing sink (a SpanStore); set by the cluster
        #: node when request tracing is active, else stays None
        self.span_sink = None
        if design.discipline == "ps":
            self.cpu: QueueingServer = ProcessorSharingServer(
                engine, name=f"{design.name}.cpu", servers=cores)
        elif design.discipline == "fifo":
            if cores != 1:
                raise ConfigError(
                    "the event loop is single-threaded by definition")
            self.cpu = FifoServer(engine, name=f"{design.name}.cpu")
        else:
            raise ConfigError(f"unknown discipline {design.discipline!r}")
        # transition_overhead_cycles is pure in (design, costs, crowd)
        # and both are fixed per model, so memoize per crowd level
        self._overhead_cache: dict = {}

    # ------------------------------------------------------------------
    def submit(self, request_id: int, segment_cycles: Sequence[float],
               rtt_cycles: int,
               on_done: Optional[Callable[[], None]] = None) -> None:
        """A request arrives now with the given CPU segments.

        ``on_done`` (if given) is called when the last segment
        completes -- the cluster layer uses it to send the response
        back over the fabric without polling. The request keeps
        ``segment_cycles`` (no copy): do not change it afterwards.

        The kick-off must run after every event already due now, as it
        would if it were scheduled at ``now``. When no live event is
        due now (:meth:`Engine.due_now`), that scheduled kick-off would
        be the very next dispatch, so it runs here instead, saving the
        event. This holds only if nothing runs between this call
        returning and the engine's next dispatch: call it last in a
        callback, and schedule anything else first (as
        :class:`RpcWorkload` schedules its next arrival).
        """
        if not segment_cycles:
            raise ConfigError("request needs at least one segment")
        handler = _InflightRequest(self, request_id, segment_cycles,
                                   rtt_cycles, on_done)
        engine = self.engine
        if engine.due_now():
            engine.at(engine._now, handler.start)
        else:
            handler.start()

    def segment_overhead_cycles(self) -> int:
        """Per-transition overhead at the *current* crowding level."""
        crowd = 0
        if self.resident_threads is not None:
            crowd = self.resident_threads + max(self.active - 1, 0)
        cached = self._overhead_cache.get(crowd)
        if cached is None:
            cached = self.design.transition_overhead_cycles(self.costs,
                                                            crowd=crowd)
            self._overhead_cache[crowd] = cached
        return cached

    # ------------------------------------------------------------------
    def cpu_busy_cycles(self) -> int:
        return int(self.cpu.busy_cycles)


class RpcWorkload:
    """Open-loop driver: requests arrive per ``arrivals``, each with
    ``segments`` CPU bursts from ``service`` and fixed ``rtt_cycles``."""

    def __init__(self, engine: Engine, server: RpcServerModel,
                 arrivals: ArrivalProcess, service: ServiceDistribution,
                 rng: random.Random, segments: int = 3,
                 rtt_cycles: int = 15_000, max_requests: int = 2_000):
        if segments < 1:
            raise ConfigError("need at least one segment")
        if max_requests < 1:
            raise ConfigError("need at least one request")
        self.engine = engine
        self.server = server
        self.arrivals = arrivals
        self.service = service
        self.rng = rng
        self.segments = segments
        self.rtt_cycles = rtt_cycles
        self.max_requests = max_requests
        self.issued = 0
        self._schedule()

    def _schedule(self) -> None:
        gaps = self.arrivals.gaps(self.rng)

        def next_arrival() -> None:
            if self.issued >= self.max_requests:
                return
            self.engine.after(max(1, int(round(next(gaps)))), arrive)

        def arrive() -> None:
            self.issued += 1
            # split one service draw across the segments
            total = max(float(self.segments), self.service.sample(self.rng))
            per_segment = [total / self.segments] * self.segments
            # schedule the next arrival first: submit must come last
            next_arrival()
            self.server.submit(self.issued, per_segment, self.rtt_cycles)

        next_arrival()

    # ------------------------------------------------------------------
    def cpu_demand_per_request(self) -> float:
        """Mean CPU cycles one request needs, including overheads."""
        overhead = self.server.design.transition_overhead_cycles(
            self.server.costs)
        return self.service.mean() + self.segments * overhead
