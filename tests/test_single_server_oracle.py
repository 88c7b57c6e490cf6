"""The one serve loop of :mod:`repro.kernel.sched` against the five
loops it replaced, kept verbatim in ``tests/single_server_reference.py``.

Every discipline runs twice on the same drawn inputs: on the
simulator's server and on its reference twin. The inputs are arrival
traces with same-cycle ties, whole :class:`Request` records and bare
segments, quanta, switch, dispatch and wake costs, and completions that
offer new work synchronously, from inside the completion. The two runs
must agree on the completion log (times and order), every request's
start and finish, the latency samples, the counters each server kept
(``completed``, ``busy_cycles``, ``overhead_cycles``, ``wakeups``,
``wasted_cycles``), the work waiting after every engine dispatch
(``in_flight()`` or ``pending()``), the obs snapshot and timeline
spans, and ``events_processed``.

The simulator's servers note every wake and dispatch they price
(:func:`_noting`); :data:`EXERCISED` names what the drawn cases must
reach between them, and the test fails if one was never reached.
"""

import dataclasses
from collections import Counter
from contextlib import nullcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.arch.costs import CostModel
from repro.hypervisor.exits import ExitReason, SplitXExitPath
from repro.kernel.io import InterruptIoServer, MwaitIoServer, PollingIoServer
from repro.kernel.sched import FifoServer, RoundRobinServer
from repro.microkernel.ipc import _ServiceQueue
from repro.sim.engine import Engine
from repro.sim.process import Signal
from repro.workloads.requests import Request
from tests import single_server_reference as reference

IO = ("interrupt", "polling", "mwait")
DISCIPLINES = ("fifo", "round-robin", "service", "splitx") + IO

#: What the drawn cases must reach, as :func:`_reached` names it.
EXERCISED = (
    "same-cycle tie", "request", "segment", "synchronous offer",
    "wake paid", "drained after one wake", "switch paid",
    "same job sliced again", "resumed after another job",
    "dispatch paid after idle", "job in service",
)

WAKE = "wake"


def _noting(cls):
    """``cls``, noting each wake and dispatch it prices in
    ``transitions`` as ``(WAKE, cost)`` or ``(last, job, cost)``."""

    class Noting(cls):
        def _wake_cycles(self):
            cost = super()._wake_cycles()
            self.transitions.append((WAKE, cost))
            return cost

        def _dispatch_cycles(self, last, job):
            cost = super()._dispatch_cycles(last, job)
            self.transitions.append((last, job, cost))
            return cost

    return Noting


def _costs(draw):
    """A cost model with small wake paths: the interrupt chain, the
    cross-core IPI and the mwait wakeup at each storage tier."""
    cycles = st.integers(0, 40)
    return dataclasses.replace(
        CostModel(), irq_entry_cycles=draw(cycles), irq_exit_cycles=0,
        scheduler_cycles=draw(st.sampled_from([0, 5])), sw_switch_cycles=0,
        cache_pollution_cycles=0, ipi_cycles=draw(cycles),
        monitor_wakeup_cycles=draw(cycles),
        hw_start_rf_cycles=draw(st.integers(0, 5)),
        hw_start_l2_cycles=draw(cycles), hw_start_l3_cycles=draw(cycles))


@st.composite
def cases(draw):
    discipline = draw(st.sampled_from(DISCIPLINES))
    whole = discipline in ("fifo", "round-robin")
    offers_more = discipline in ("fifo", "round-robin", "service")
    jobs = []
    for _ in range(draw(st.integers(1, 10))):
        gap = draw(st.sampled_from([0, 0, 1, 3]) | st.integers(0, 150))
        if whole and draw(st.booleans()):
            cycles = draw(st.floats(0.0, 90.0))  # rounds, at least 1
        else:
            cycles = draw(st.integers(1, 90))
        segment = discipline == "fifo" and draw(st.booleans())
        follow = (draw(st.none() | st.integers(1, 60)) if offers_more
                  else None)
        jobs.append((gap, cycles, segment, follow))
    return {
        "discipline": discipline,
        "jobs": jobs,
        "quantum": draw(st.integers(1, 40)),
        "switch": draw(st.sampled_from([0, 1, 7, 25])),
        "dispatch": draw(st.sampled_from([0, 3, 17])),
        "poll": draw(st.integers(1, 30)),
        "cross_core": draw(st.booleans()),
        "tier": draw(st.sampled_from(["rf", "l2", "l3"])),
        "comm": draw(st.integers(1, 30)),
        "costs": _costs(draw),
        "instrumented": draw(st.booleans()),
    }


def _case(discipline, jobs):
    """A case as :func:`cases` draws it, at fixed costs."""
    return {"discipline": discipline, "jobs": jobs, "quantum": 10,
            "switch": 7, "dispatch": 17, "poll": 5, "cross_core": False,
            "tier": "rf", "comm": 20, "costs": CostModel(),
            "instrumented": True}


#: Fixed cases that between them reach every entry of
#: :data:`EXERCISED` whatever else is drawn: a lone job sliced again,
#: a second job interleaved with it, switches after an idle gap, tied
#: arrivals drained after one wake, and a dispatch after idle on the
#: service thread.
EXAMPLES = (
    _case("round-robin", [(0, 35, False, None), (5, 12.4, False, 8),
                          (200, 30, False, None)]),
    _case("fifo", [(0, 20, True, 4), (0, 9.6, False, 3),
                   (100, 6, True, None)]),
    _case("service", [(0, 30, False, 5), (0, 10, False, None),
                      (300, 12, False, None)]),
    _case("mwait", [(0, 40, False, None), (0, 40, False, None),
                    (500, 10, False, None)]),
    _case("splitx", [(0, 40, False, None), (3, 40, False, None)]),
)


def _build(case, engine, simulator):
    """The server a case runs on, and the object holding its queue."""
    discipline = case["discipline"]
    costs = case["costs"]
    if discipline == "splitx":
        cls = SplitXExitPath if simulator else reference.SplitXExitPath
        path = cls(engine, costs, comm_cycles=case["comm"])
        return path, getattr(path, "_core", path)
    cls = {"fifo": FifoServer, "round-robin": RoundRobinServer,
           "interrupt": InterruptIoServer, "polling": PollingIoServer,
           "mwait": MwaitIoServer, "service": _ServiceQueue}[discipline]
    cls = _noting(cls) if simulator else getattr(reference, cls.__name__)
    if discipline == "fifo":
        server = cls(engine, name="srv")
    elif discipline == "round-robin":
        server = cls(engine, quantum=case["quantum"],
                     switch_cost=case["switch"], name="srv")
    elif discipline == "interrupt":
        server = cls(engine, costs, cross_core=case["cross_core"])
    elif discipline == "polling":
        server = cls(engine, costs, poll_iteration_cycles=case["poll"])
    elif discipline == "mwait":
        server = cls(engine, costs, tier=case["tier"])
    else:
        server = cls(engine, case["dispatch"])
    server.transitions = []
    return server, server


class _Owner:
    """A segment's owner: notes the completion and may offer another."""

    def __init__(self, run, label, follow):
        self.run = run
        self.label = label
        self.follow = follow

    def segment_done(self):
        self.run.completed(self.label, self.follow, segment=True)


class _Run:
    """One case on one side: offers the drawn jobs at their arrival
    cycles, logs each completion, and dispatches one event at a time."""

    def __init__(self, case, simulator):
        self.case = case
        self.simulator = simulator
        self.engine = Engine()
        self.server = self.holder = None
        self.log = []
        self.requests = []
        self.synchronous_offers = 0
        self.in_service = 0

    def offer(self, label, cycles, segment, follow):
        discipline = self.case["discipline"]
        server = self.server
        if discipline in IO:
            server.deliver(label, cycles)
        elif discipline == "splitx":
            self.engine.spawn(self._exit(label, cycles))
        elif discipline == "service":
            done = server.submit(cycles)
            done.add_waiter(lambda _value: self.completed(label, follow))
        elif segment:
            server.offer_segment(cycles, _Owner(self, label, follow))
        else:
            done = Signal(f"done{label}")
            done.add_waiter(lambda _request: self.completed(label, follow))
            request = Request(len(self.requests), float(self.engine.now),
                              cycles, payload={"done": done})
            self.requests.append(request)
            server.offer(request)

    def _exit(self, label, cycles):
        yield from self.server.exit(ExitReason.VMCALL, cycles)
        self.log.append((self.engine.now, label))

    def completed(self, label, follow, segment=False):
        self.log.append((self.engine.now, label))
        if follow is not None:
            self.synchronous_offers += 1
            self.offer(("after", label), follow, segment, None)

    def observe(self):
        """Run to the end; everything the two sides must agree on."""
        case, engine = self.case, self.engine
        discipline = case["discipline"]
        session_or_not = (obs.session("oracle") if case["instrumented"]
                          else nullcontext())
        with session_or_not as session:
            self.server, self.holder = _build(case, engine, self.simulator)
            server = self.server
            arrival = 0
            for label, (gap, cycles, segment, follow) in enumerate(
                    case["jobs"]):
                arrival += gap
                engine.at(arrival, self.offer, label, cycles, segment,
                          follow)
            waiting = []
            while engine.step():
                waiting.append(self._waiting())
            if discipline == "polling":
                server.finalize()
            observed = {
                "log": self.log,
                "requests": [(r.req_id, r.start_time, r.finish_time)
                             for r in self.requests],
                "waiting": waiting,
                "events": engine.events_processed,
                "now": engine.now,
            }
            if discipline == "splitx":
                observed["counters"] = [server.exits,
                                        server.hv_core_busy_cycles]
            elif discipline == "service":
                observed["counters"] = [server.busy_cycles]
            else:
                observed["samples"] = server.recorder.samples
                observed["counters"] = [server.completed,
                                        server.busy_cycles]
                if discipline in IO:
                    observed["counters"] += [server.wakeups,
                                             server.wasted_cycles,
                                             server.stats()]
                else:
                    observed["counters"].append(server.overhead_cycles)
            if session is not None:
                observed["snapshot"] = session.snapshot()
                observed["spans"] = (list(session.timeline.spans),
                                     session.timeline.open_spans())
        return observed

    def _waiting(self):
        """The work waiting after one dispatch: ``pending()`` for an I/O
        server, ``in_flight()`` for FIFO and RR, else the queue."""
        discipline = self.case["discipline"]
        if discipline in IO:
            return self.server.pending()
        if discipline in ("fifo", "round-robin"):
            in_flight = self.server.in_flight()
            self.in_service += in_flight > len(self.server._queue)
            return in_flight
        return len(self.holder._queue)


def _reached(case, run):
    """Which of :data:`EXERCISED` a simulator run reached."""
    discipline = case["discipline"]
    reached = set()
    jobs = case["jobs"]
    if any(gap == 0 for gap, _cycles, _segment, _follow in jobs[1:]):
        reached.add("same-cycle tie")
    if discipline in ("fifo", "round-robin"):
        reached.update("segment" if segment else "request"
                       for _gap, _cycles, segment, _follow in jobs)
    if run.synchronous_offers:
        reached.add("synchronous offer")
    if run.in_service:
        reached.add("job in service")
    wakes = since_wake = wake_cost = 0
    served = []
    for transition in getattr(run.server, "transitions", ()):
        if transition[0] is WAKE:
            wakes += 1
            since_wake = 0
            wake_cost = transition[1]
            if wake_cost:
                reached.add("wake paid")
            continue
        last, job, cost = transition
        since_wake += 1
        if wake_cost and since_wake == 2:
            reached.add("drained after one wake")
        if cost and wakes > 1 and since_wake == 1:
            reached.add("dispatch paid after idle")
        if discipline == "round-robin" and case["switch"]:
            if last is job:
                reached.add("same job sliced again")
            elif last is not None:
                reached.add("switch paid")
        if (discipline == "round-robin" and last is not job
                and any(job is other for other in served)):
            reached.add("resumed after another job")
        served.append(job)
    return reached


def test_the_serve_loop_matches_the_five_loops_it_replaced():
    seen = Counter()

    @settings(max_examples=250, deadline=None)
    @example(case=EXAMPLES[0])
    @example(case=EXAMPLES[1])
    @example(case=EXAMPLES[2])
    @example(case=EXAMPLES[3])
    @example(case=EXAMPLES[4])
    @given(case=cases())
    def check(case):
        run = _Run(case, simulator=True)
        observed = run.observe()
        assert observed == _Run(case, simulator=False).observe()
        seen.update(_reached(case, run))

    check()
    assert not set(EXERCISED) - set(seen), seen
