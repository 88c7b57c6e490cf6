"""Tests for the queueing disciplines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kernel import FifoServer, ProcessorSharingServer, RoundRobinServer
from repro.kernel.sched import feed_trace
from repro.sim.engine import Engine
from repro.sim.process import Signal
from repro.workloads import (
    Bimodal,
    PoissonArrivals,
    Request,
    RequestGenerator,
    gap_for_load,
)


def run_server(factory, trace):
    engine = Engine()
    server = factory(engine)
    feed_trace(engine, server, trace)
    engine.run()
    return server


def simple_trace(arrivals_and_services):
    return [Request(i, arrival_time=a, service_cycles=s)
            for i, (a, s) in enumerate(arrivals_and_services)]


class TestFifoServer:
    def test_back_to_back_service(self):
        trace = simple_trace([(10, 100), (20, 100)])
        server = run_server(FifoServer, trace)
        assert server.completed == 2
        # second request waits for the first: latency 100 + (110-20) = 190
        assert trace[0].finish_time == 110
        assert trace[1].finish_time == 210

    def test_idle_gap_no_carryover(self):
        trace = simple_trace([(10, 50), (1000, 50)])
        server = run_server(FifoServer, trace)
        assert trace[1].finish_time == 1050

    def test_busy_cycles_sum(self):
        trace = simple_trace([(1, 100), (2, 300)])
        server = run_server(FifoServer, trace)
        assert server.busy_cycles == 400

    def test_order_preserved(self):
        trace = simple_trace([(10, 500), (11, 10), (12, 10)])
        run_server(FifoServer, trace)
        assert trace[0].finish_time < trace[1].finish_time \
            < trace[2].finish_time


class TestRoundRobinServer:
    def test_quantum_slices_interleave(self):
        trace = simple_trace([(0, 200), (1, 200)])
        server = run_server(
            lambda e: RoundRobinServer(e, quantum=100, switch_cost=0), trace)
        # both make progress; completion within ~400 cycles of start
        assert server.completed == 2
        assert abs(trace[0].finish_time - trace[1].finish_time) <= 101

    def test_zero_switch_cost_no_overhead(self):
        trace = simple_trace([(0, 500), (0, 500)])
        server = run_server(
            lambda e: RoundRobinServer(e, quantum=50, switch_cost=0), trace)
        assert server.overhead_cycles == 0

    def test_switch_cost_accumulates(self):
        trace = simple_trace([(0, 500), (0, 500)])
        server = run_server(
            lambda e: RoundRobinServer(e, quantum=50, switch_cost=10), trace)
        assert server.overhead_cycles > 0

    def test_single_job_never_pays_switch(self):
        trace = simple_trace([(0, 1000)])
        server = run_server(
            lambda e: RoundRobinServer(e, quantum=10, switch_cost=100), trace)
        assert server.overhead_cycles == 0
        assert trace[0].finish_time == pytest.approx(1000, abs=2)

    def test_rejects_bad_quantum(self):
        with pytest.raises(ConfigError):
            RoundRobinServer(Engine(), quantum=0)

    def test_rejects_negative_switch_cost(self):
        with pytest.raises(ConfigError):
            RoundRobinServer(Engine(), quantum=10, switch_cost=-1)

    @pytest.mark.parametrize("kwargs, argument", [
        (dict(quantum=2.5), "quantum"),
        (dict(quantum=True), "quantum"),
        (dict(quantum="10"), "quantum"),
        (dict(quantum=10, switch_cost=1.5), "switch_cost"),
        (dict(quantum=10, switch_cost=True), "switch_cost"),
    ])
    def test_rejects_non_integer_arguments(self, kwargs, argument):
        with pytest.raises(ConfigError, match=argument):
            RoundRobinServer(Engine(), **kwargs)


class TestProcessorSharingServer:
    def test_single_job_runs_at_full_rate(self):
        trace = simple_trace([(0, 1000)])
        run_server(ProcessorSharingServer, trace)
        assert trace[0].finish_time == pytest.approx(1000, abs=2)

    def test_two_jobs_share_equally(self):
        trace = simple_trace([(0, 1000), (0, 1000)])
        run_server(ProcessorSharingServer, trace)
        # each progresses at 1/2: both finish around t=2000
        assert trace[0].finish_time == pytest.approx(2000, abs=5)
        assert trace[1].finish_time == pytest.approx(2000, abs=5)

    def test_short_job_overtakes_long_one(self):
        trace = simple_trace([(0, 10_000), (100, 200)])
        run_server(ProcessorSharingServer, trace)
        assert trace[1].finish_time < trace[0].finish_time
        # short job: 100 alone? no -- long job running; shares at 1/2
        assert trace[1].finish_time == pytest.approx(100 + 400, abs=10)

    def test_busy_cycles_equal_total_demand(self):
        trace = simple_trace([(0, 300), (50, 500)])
        server = run_server(ProcessorSharingServer, trace)
        assert server.busy_cycles == pytest.approx(800, abs=10)

    def test_done_signal_fires(self):
        engine = Engine()
        server = ProcessorSharingServer(engine)
        done = Signal("d")
        hits = []
        done.add_waiter(hits.append)
        engine.at(0, server.offer,
                  Request(0, 0.0, 100, payload={"done": done}))
        engine.run()
        assert len(hits) == 1

    def test_multi_server_two_jobs_two_cores_full_rate(self):
        trace = simple_trace([(0, 1000), (0, 1000)])
        engine = Engine()
        server = ProcessorSharingServer(engine, servers=2)
        feed_trace(engine, server, trace)
        engine.run()
        assert trace[0].finish_time == pytest.approx(1000, abs=5)
        assert trace[1].finish_time == pytest.approx(1000, abs=5)

    def test_multi_server_oversubscription_shares(self):
        # 4 jobs on 2 cores: each runs at rate 1/2
        trace = simple_trace([(0, 1000)] * 4)
        engine = Engine()
        server = ProcessorSharingServer(engine, servers=2)
        feed_trace(engine, server, trace)
        engine.run()
        for request in trace:
            assert request.finish_time == pytest.approx(2000, abs=10)

    def test_multi_server_busy_counts_server_cycles(self):
        trace = simple_trace([(0, 600), (0, 600)])
        engine = Engine()
        server = ProcessorSharingServer(engine, servers=2)
        feed_trace(engine, server, trace)
        engine.run()
        assert server.busy_cycles == pytest.approx(1200, abs=20)

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigError):
            ProcessorSharingServer(Engine(), servers=0)

    @pytest.mark.parametrize("servers", [True, 1.5, "2"])
    def test_rejects_non_integer_servers(self, servers):
        with pytest.raises(ConfigError, match="servers"):
            ProcessorSharingServer(Engine(), servers=servers)

    def test_ps_beats_fifo_under_high_variability(self):
        # the paper's Section 4 claim, as a regression test
        svc = Bimodal(500, 50_000, p_long=0.01)
        gen = RequestGenerator(PoissonArrivals(gap_for_load(svc, 0.6)),
                               svc, random.Random(7))
        trace_a = gen.trace(3000)
        trace_b = [Request(r.req_id, r.arrival_time, r.service_cycles)
                   for r in trace_a]
        fifo = run_server(FifoServer, trace_a)
        ps = run_server(ProcessorSharingServer, trace_b)
        assert ps.recorder.pct(99) < fifo.recorder.pct(99)
        assert ps.recorder.mean() < fifo.recorder.mean()


@given(services=st.lists(st.integers(min_value=1, max_value=5000),
                         min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_all_disciplines_conserve_requests_property(services):
    trace_template = [(i * 100, s) for i, s in enumerate(services)]
    for factory in (FifoServer,
                    ProcessorSharingServer,
                    lambda e: RoundRobinServer(e, quantum=97, switch_cost=3)):
        trace = simple_trace(trace_template)
        server = run_server(factory, trace)
        assert server.completed == len(services)
        assert all(r.finish_time is not None for r in trace)
        # no request finishes before its arrival + service
        for r in trace:
            assert r.finish_time >= r.arrival_time + 0.5 * r.service_cycles


class _ResidualRecordingPS(ProcessorSharingServer):
    """PS that records, for every finished job, how much virtual work
    its heap key still had outstanding at the moment it was popped."""

    def __init__(self, engine, **kwargs):
        super().__init__(engine, **kwargs)
        self._keys = {}
        self.residuals = []

    def offer(self, request):
        super().offer(request)
        # reconstruct the key offer() just pushed: progress has already
        # been advanced to the offer instant
        self._keys[request.req_id] = (
            max(1.0, float(request.service_cycles)) + self._progress)

    def _finish(self, request):
        self.residuals.append(self._keys.pop(request.req_id)
                              - self._progress)
        super()._finish(request)


@given(jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=4000),
                               st.integers(min_value=1, max_value=9000)),
                     min_size=1, max_size=25),
       servers=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_ps_never_completes_with_residual_work_property(jobs, servers):
    """The epsilon-aware completion pop must never finish a job that
    still has more than COMPLETION_EPSILON virtual cycles of key left:
    integer deadline rounding may land the timer half a cycle early,
    but a genuinely unfinished job is re-armed, not force-popped."""
    arrival = 0
    trace = []
    for i, (gap, service) in enumerate(jobs):
        arrival += gap
        trace.append(Request(i, arrival_time=arrival,
                             service_cycles=service))
    engine = Engine()
    server = _ResidualRecordingPS(engine, servers=servers)
    feed_trace(engine, server, trace)
    engine.run()
    assert server.completed == len(jobs)
    eps = ProcessorSharingServer.COMPLETION_EPSILON
    assert all(residual <= eps + 1e-9 for residual in server.residuals)
