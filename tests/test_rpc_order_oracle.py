"""The model backend's inline kick-off, Request-free segments and
cancelled hedge timers against the behaviour they replaced.

:func:`old_behaviour` restores that behaviour by monkeypatching:

- every kick-off is scheduled at ``now`` (``Engine.due_now`` always
  answers True, so ``RpcServerModel.submit`` takes its scheduled
  branch);
- every segment enters the queueing server as its own
  :class:`~repro.workloads.requests.Request` through ``offer``, and its
  completion comes back through the payload's ``done``;
- hedge timers are never cancelled, neither when their shard
  completes nor when their request is dropped.

A run and its oracle twin must agree on everything observable: the
cluster summary, every latency sample in order, the node, server and
fabric counters, the obs snapshot and the span payload. They must also
dispatch the same events in the same order (:class:`Trace`), less the
oracle's kick-offs and the hedge timers the change cancelled, so no
event may overtake one it used to follow even where no result would
show it. The change's ``events_processed`` is the oracle's minus the
kick-offs started inline minus the hedge timers cancelled.
"""

import json
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
import repro.obs.spans as spans
from repro.arch.costs import CostModel
from repro.cluster import DESIGNS, ClusterConfig, LinkSpec
from repro.cluster.balancer import POLICIES
from repro.cluster.run import build_cluster, drive_workload, summarize_run
from repro.cluster.service import ClusterService
from repro.distributed.rpc import (SW_THREADS, RpcServerModel,
                                   RpcWorkload, _InflightRequest)
from repro.sim.engine import Engine, HeapEngine
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.requests import Request
from repro.workloads.service import Exponential

START = "_InflightRequest.start"
HEDGE = "ClusterService._hedge"
DONE_SHARD = "hedge on a done shard"
SETTLED = "hedge on a settled request"


class _SegmentDone:
    """The payload ``done`` of a per-segment Request."""

    def __init__(self, handler):
        self.handler = handler

    def fire(self, _request):
        self.handler.segment_done()


def _offer_request_per_segment(handler):
    """``_InflightRequest._offer_segment`` as it was: one Request each."""
    model = handler.model
    overhead = model.segment_overhead_cycles()
    seg = int(round(handler.segments[handler.index]))
    seg = seg if seg > 1 else 1
    if model.span_sink is not None:
        model.span_sink.node_demand(handler.req_id, seg, overhead, 0)
    model.cpu.offer(Request(handler.req_id, float(model.engine.now),
                            seg + overhead, payload={
                                "done": _SegmentDone(handler)}))


@contextmanager
def old_behaviour():
    """The oracle: see the module docstring."""
    cancel = Engine.cancel

    def keep_hedges(engine, event):
        if _target(event[2]) != HEDGE:
            cancel(engine, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "due_now", lambda engine: True)
        patch.setattr(_InflightRequest, "_offer_segment",
                      _offer_request_per_segment)
        patch.setattr(Engine, "cancel", keep_hedges)
        yield


def _target(fn):
    """The qualified name of the callback an event will call, through a
    :class:`_Recorded` wrapper."""
    fn = getattr(fn, "fn", fn)
    return getattr(fn, "__qualname__", None)


class _Recorded:
    """An engine callback that notes its dispatch in a :class:`Trace`."""

    __slots__ = ("trace", "engine", "fn")

    def __init__(self, trace, engine, fn):
        self.trace = trace
        self.engine = engine
        self.fn = fn

    def __call__(self, *args):
        self.trace.note(self.engine.now, self.fn, args)
        return self.fn(*args)


class Trace:
    """Every dispatched event, in order, as ``(time, what, ...)``.

    Labels name the callback and what it acts on in run-independent
    terms (attempt ids, request ids, shard indexes, or the order in
    which an owner first dispatched), so two equivalent runs trace
    equal lists. A hedge timer that fires on a shard already done is
    labelled ``hedge on a done shard``, and one that fires on a request
    already settled ``hedge on a settled request``: the change cancels
    both.
    """

    def __init__(self):
        self.events = []
        self._owners = {}

    def note(self, now, fn, args):
        name = getattr(fn, "__qualname__", type(fn).__name__)
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, _InflightRequest):
            what = (START if name == START else "next segment",
                    owner.req_id)
        elif name == "Fabric._deliver":
            target, delivered = args
            what = (name, target.__name__, delivered[-1])
        elif name == HEDGE:
            state, shard_index, _cycles = args
            if state.shards[shard_index].done:
                name = DONE_SHARD
            elif state.settled:
                name = SETTLED
            what = (name, state.request_id, shard_index)
        elif owner is not None:
            what = (name, self._owners.setdefault(id(owner),
                                                  len(self._owners)))
        else:
            what = (name,)
        self.events.append((now,) + what)

    def without(self, *names):
        return [event for event in self.events if event[1] not in names]


@contextmanager
def traced():
    """Trace dispatches and count ``due_now`` answers and live hedge
    timers cancelled within the run's horizon, in all and on a settled
    request."""
    trace = Trace()
    counts = Counter()
    at, due_now, cancel = HeapEngine.at, Engine.due_now, Engine.cancel

    def recording_at(engine, time, fn, *args):
        return at(engine, time, _Recorded(trace, engine, fn), *args)

    def counting_due_now(engine):
        due = due_now(engine)
        counts["scheduled" if due else "inline"] += 1
        return due

    def counting_cancel(engine, event):
        if (_target(event[2]) == HEDGE
                and (engine.run_until is None
                     or event[0] <= engine.run_until)):
            counts["hedges cancelled"] += 1
            state, _shard_index, _cycles = event[3]
            counts["settled hedges cancelled"] += state.settled
        cancel(engine, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HeapEngine, "at", recording_at)
        patch.setattr(Engine, "due_now", counting_due_now)
        patch.setattr(Engine, "cancel", counting_cancel)
        yield trace, counts


def _observe_cluster(config, seed):
    """One traced, instrumented cluster run: (observables, events)."""
    with obs.session("oracle") as session, \
            spans.tracing(top_k=4, sample_every=3) as store:
        streams = RngStreams(seed)
        service = build_cluster(config, streams)
        drive_workload(service, config, streams)
        service.engine.run(until=config.horizon())
        summary = summarize_run(service)
        snapshot = session.snapshot()
    fabric = service.fabric
    observed = {
        "summary": summary,
        "latencies": service.recorder.samples,
        "service": [service.attempts, service.hedges_sent,
                    service.request_wire_drops,
                    service.response_wire_drops, service.rejected,
                    service.late_responses, service.shards_completed],
        "nodes": [[node.admitted, node.completed, node.rejected,
                   node.in_flight(), node.busy_cycles(),
                   node.server.completed, node.server.peak_concurrency,
                   node.server.cpu.completed,
                   node.server.recorder.samples]
                  for node in service.nodes],
        "fabric": [fabric.sent, fabric.delivered, fabric.dropped,
                   fabric.in_flight, fabric.latency_cycles],
        "now": service.engine.now,
        "spans": [store.payload(), store.paths(),
                  store.export_fragments()],
        "snapshot": snapshot,
    }
    return json.dumps(observed, sort_keys=True), \
        service.engine.events_processed


def _observe_rpc(case):
    """One traced, instrumented E09-style run: (observables, events)."""
    (design, cores, resident, segments, rtt, gap, mean, requests,
     seed) = case
    with obs.session("oracle") as session:
        engine = Engine()
        server = RpcServerModel(engine, DESIGNS[design], CostModel(),
                                cores=cores, resident_threads=resident)
        RpcWorkload(engine, server, PoissonArrivals(gap),
                    Exponential(mean), random.Random(seed),
                    segments=segments, rtt_cycles=rtt,
                    max_requests=requests)
        engine.run()
        snapshot = session.snapshot()
    observed = {
        "latencies": server.recorder.samples,
        "server": [server.completed, server.peak_concurrency,
                   server.active, server.cpu.completed,
                   server.cpu.busy_cycles],
        "now": engine.now,
        "snapshot": snapshot,
    }
    return json.dumps(observed, sort_keys=True), engine.events_processed


def _check_against_oracle(observe, *args):
    """Run ``observe`` under the change and under the oracle, compare,
    and return the change's branch counts."""
    with traced() as (trace, counts):
        observed, events = observe(*args)
    with old_behaviour(), traced() as (oracle_trace, _counts):
        oracle_observed, oracle_events = observe(*args)
    assert observed == oracle_observed
    assert trace.without(START) == oracle_trace.without(
        START, DONE_SHARD, SETTLED)
    cancelled = Counter(event[1] for event in oracle_trace.events)
    assert counts["hedges cancelled"] == (cancelled[DONE_SHARD]
                                          + cancelled[SETTLED])
    assert counts["settled hedges cancelled"] == cancelled[SETTLED]
    assert events == (oracle_events - counts["inline"]
                      - counts["hedges cancelled"])
    return counts


@st.composite
def cluster_cases(draw):
    nodes = draw(st.integers(2, 6))
    policy = draw(st.sampled_from(POLICIES))
    config = ClusterConfig(
        nodes=nodes,
        design=DESIGNS[draw(st.sampled_from(sorted(DESIGNS)))],
        policy=policy,
        fanout=draw(st.integers(1, nodes)),
        load=draw(st.sampled_from([0.1, 0.5, 0.9])),
        mean_service_cycles=draw(st.sampled_from([300, 5_000])),
        segments=draw(st.integers(1, 4)),
        rtt_cycles=draw(st.sampled_from([0, 300, 20_000])),
        requests=draw(st.integers(5, 30)),
        queue_limit=draw(st.none() | st.integers(1, 3)),
        hedge_after=draw(st.none() | st.sampled_from([500, 8_000,
                                                      60_000])),
        threads_per_peer=draw(st.sampled_from([0, 1, 4])),
        # a jitter-free link delivers a request's shards in one cycle:
        # kick-offs that find another event due take the scheduled branch
        link=LinkSpec(base_cycles=draw(st.sampled_from([1, 2_000])),
                      jitter_mean_cycles=draw(st.sampled_from(
                          [0.0, 40.0, 500.0])),
                      drop_prob=draw(st.sampled_from([0.0, 0.05]))),
        probe_delay_cycles=(draw(st.sampled_from([0, 700, 20_000]))
                            if policy in ("jsq", "p2c") else 0))
    return config, draw(st.integers(0, 2**16))


#: Single-slot queues and lossy links drop requests whose other shards
#: still hold a hedge timer.
DROPS_WITH_HEDGES = ClusterConfig(
    nodes=4, design=DESIGNS["hw-threads"], policy="round-robin", fanout=4,
    load=0.9, mean_service_cycles=5_000, segments=2, rtt_cycles=300,
    requests=30, queue_limit=1, hedge_after=8_000, threads_per_peer=0,
    link=LinkSpec(base_cycles=2_000, jitter_mean_cycles=40.0,
                  drop_prob=0.05))


def test_cluster_runs_match_the_oracle():
    seen = Counter()

    @settings(max_examples=60, deadline=None)
    @example(case=(DROPS_WITH_HEDGES, 0))
    @given(case=cluster_cases())
    def check(case):
        seen.update(_check_against_oracle(_observe_cluster, *case))

    check()
    # the guard's both answers, and both cancels, must have been exercised
    assert seen["scheduled"] and seen["inline"] and seen["hedges cancelled"]
    assert seen["settled hedges cancelled"]


#: (design, cores, resident threads, segments, rtt, mean gap, mean
#: service, requests, seed)
rpc_cases = st.tuples(
    st.sampled_from(sorted(DESIGNS)), st.integers(1, 2),
    st.sampled_from([None, 0, 7]), st.integers(1, 3),
    st.sampled_from([0, 1, 25, 200]), st.sampled_from([15.0, 40.0, 90.0]),
    st.sampled_from([10.0, 50.0]), st.integers(10, 150),
    st.integers(0, 2**16),
).filter(lambda case: case[0] != "event-loop" or case[1] == 1)


def test_rpc_workload_matches_the_oracle():
    """E09's workload: small cycle counts make arrivals tie with segment
    completions and remote-call returns. In the explicit example an
    arrival ties with the completion its predecessor's kick-off armed,
    which it must still precede: submitting before scheduling the next
    arrival would swap the two."""
    seen = Counter()

    @settings(max_examples=60, deadline=None)
    @example(case=("hw-threads", 1, None, 1, 0, 40.0, 10.0, 60, 1))
    @given(case=rpc_cases)
    def check(case):
        seen.update(_check_against_oracle(_observe_rpc, case))

    check()
    assert seen["scheduled"] and seen["inline"]


def _tie(behaviour):
    """B reaches a sw-threads node at the cycle A's only segment
    completes there; B's arrival event was scheduled first."""
    costs = CostModel()
    engine = Engine()
    model = RpcServerModel(engine, SW_THREADS, costs, resident_threads=7)
    solo = model.segment_overhead_cycles()
    finished = {}
    cycle = 1_000 + solo    # A runs alone from 0
    with behaviour as yielded:
        engine.at(cycle, model.submit, 2, [1_000.0], 100,
                  lambda: finished.setdefault("B", engine.now))
        model.submit(1, [1_000.0], 100,
                     lambda: finished.setdefault("A", engine.now))
        engine.run()
    return finished, cycle, solo, yielded


def test_same_cycle_tie_starts_after_the_completion():
    """Started first, B would count A in its crowd and pay a dearer
    transition; the kick-off must wait for A's completion."""
    finished, cycle, solo, (_trace, counts) = _tie(traced())
    oracle, _cycle, _solo, _ = _tie(old_behaviour())
    assert finished == oracle
    assert finished["A"] == cycle
    assert finished["B"] == cycle + 1_000 + solo
    crowded = SW_THREADS.transition_overhead_cycles(CostModel(), crowd=8)
    assert crowded != solo   # the wrong order would show
    assert counts["scheduled"] == 1 and counts["inline"] == 1
