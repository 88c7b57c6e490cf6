"""Tests for the RPC server designs."""

import pytest

from repro.arch.costs import CostModel
from repro.distributed import (
    EVENT_LOOP,
    HW_THREADS,
    SW_THREADS,
    RpcServerModel,
    RpcWorkload,
    ServerDesign,
)
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads import Constant, Exponential, PoissonArrivals


def run_workload(design, mean_gap=10_000, service=Constant(3_000),
                 requests=100, segments=3, rtt=5_000, seed=1):
    engine = Engine()
    server = RpcServerModel(engine, design, CostModel())
    RpcWorkload(engine, server, PoissonArrivals(mean_gap), service,
                RngStreams(seed).stream("w"), segments=segments,
                rtt_cycles=rtt, max_requests=requests)
    engine.run()
    return engine, server


class TestTransitionOverheads:
    def test_hw_cheapest_sw_most_expensive(self):
        costs = CostModel()
        hw = HW_THREADS.transition_overhead_cycles(costs)
        sw = SW_THREADS.transition_overhead_cycles(costs)
        el = EVENT_LOOP.transition_overhead_cycles(costs)
        assert hw < el < sw
        assert sw > 100 * hw / 10  # sw pays the full scheduler chain

    def test_unknown_design_rejected(self):
        bogus = ServerDesign("green-threads", "ps")
        with pytest.raises(ConfigError):
            bogus.transition_overhead_cycles(CostModel())

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ConfigError):
            RpcServerModel(Engine(), ServerDesign("hw-threads", "lifo"))


class TestRpcServerModel:
    def test_all_requests_complete(self):
        for design in (HW_THREADS, SW_THREADS, EVENT_LOOP):
            _engine, server = run_workload(design, requests=50)
            assert server.completed == 50, design.name

    def test_latency_includes_rtts(self):
        _engine, server = run_workload(HW_THREADS, requests=20,
                                       segments=3, rtt=5_000)
        # 2 remote calls between 3 segments: at least 10k of RTT + service
        assert server.recorder.pct(50) >= 2 * 5_000 + 3_000

    def test_single_segment_skips_rtt(self):
        _engine, server = run_workload(HW_THREADS, requests=20,
                                       segments=1, rtt=50_000)
        assert server.recorder.pct(50) < 50_000

    def test_sw_threads_burn_more_cpu(self):
        _e, hw = run_workload(HW_THREADS, requests=60)
        _e, sw = run_workload(SW_THREADS, requests=60)
        assert sw.cpu_busy_cycles() > hw.cpu_busy_cycles()

    def test_concurrency_tracked(self):
        _engine, server = run_workload(HW_THREADS, mean_gap=2_000,
                                       requests=50, rtt=20_000)
        assert server.peak_concurrency > 1
        assert server.active == 0

    def test_empty_segments_rejected(self):
        server = RpcServerModel(Engine(), HW_THREADS)
        with pytest.raises(ConfigError):
            server.submit(0, [], 100)

    @pytest.mark.parametrize("design", [SW_THREADS, EVENT_LOOP],
                             ids=["ps", "fifo"])
    @pytest.mark.parametrize("cores", ["2", 2.5, 1.0, True, 0])
    def test_bad_cores_rejected_naming_cores(self, design, cores):
        with pytest.raises(ConfigError, match="cores must be an integer"):
            RpcServerModel(Engine(), design, cores=cores)


class TestShapes:
    def test_sw_threads_saturate_before_hw(self):
        # offered load ~0.85 of base service: sw overhead pushes it over
        service = Exponential(4_000)
        mean_gap = 4_000 / 0.85
        _e, hw = run_workload(HW_THREADS, mean_gap=mean_gap,
                              service=service, requests=300)
        _e, sw = run_workload(SW_THREADS, mean_gap=mean_gap,
                              service=service, requests=300)
        assert sw.recorder.pct(99) > hw.recorder.pct(99)

    def test_event_loop_matches_hw_on_throughput(self):
        service = Exponential(4_000)
        _e, hw = run_workload(HW_THREADS, service=service, requests=200)
        _e, el = run_workload(EVENT_LOOP, service=service, requests=200)
        assert el.completed == hw.completed


class TestRpcWorkload:
    def test_cpu_demand_accounts_overhead(self):
        engine = Engine()
        server = RpcServerModel(engine, SW_THREADS, CostModel())
        workload = RpcWorkload(engine, server, PoissonArrivals(10_000),
                               Constant(3_000), RngStreams(1).stream("w"),
                               segments=2, max_requests=1)
        overhead = SW_THREADS.transition_overhead_cycles(CostModel())
        assert workload.cpu_demand_per_request() == 3_000 + 2 * overhead

    def test_rejects_zero_requests(self):
        engine = Engine()
        server = RpcServerModel(engine, HW_THREADS)
        with pytest.raises(ConfigError):
            RpcWorkload(engine, server, PoissonArrivals(100), Constant(10),
                        RngStreams(1).stream("w"), max_requests=0)

    def test_rejects_zero_segments(self):
        engine = Engine()
        server = RpcServerModel(engine, HW_THREADS)
        with pytest.raises(ConfigError):
            RpcWorkload(engine, server, PoissonArrivals(100), Constant(10),
                        RngStreams(1).stream("w"), segments=0)


class TestSeedStability:
    """The determinism audit: nothing in the RPC layer may touch the
    global random module, so poisoning its state between runs must not
    change a single sample."""

    def _fingerprint(self):
        _engine, server = run_workload(SW_THREADS,
                                       service=Exponential(3_000),
                                       requests=80, seed=42)
        return (server.completed, tuple(server.recorder.samples))

    def test_global_rng_poisoning_is_irrelevant(self):
        import random
        random.seed(0)
        first = self._fingerprint()
        random.seed(31337)
        for _ in range(1_000):
            random.random()
        second = self._fingerprint()
        assert first == second

    def test_module_has_no_runtime_random_import(self):
        # the `import random` in rpc.py is TYPE_CHECKING-gated; at
        # runtime the module must not even expose the global-RNG module
        import repro.distributed.rpc as rpc
        assert not hasattr(rpc, "random")


class TestResidentCrowding:
    def test_overhead_reread_per_segment_tracks_active(self):
        """The crowd term must follow the live concurrency, not the
        arrival-time snapshot: a burst of simultaneous requests makes
        every later segment dearer."""
        engine = Engine()
        costs = CostModel()
        server = RpcServerModel(engine, SW_THREADS, costs,
                                resident_threads=8)
        for i in range(4):
            server.submit(i, [1_000.0, 1_000.0], 100)
        engine.run()
        assert server.completed == 4
        solo = SW_THREADS.transition_overhead_cycles(costs, crowd=8)
        crowded = SW_THREADS.transition_overhead_cycles(costs, crowd=11)
        # 4 concurrent requests x 2 segments, each charged between the
        # solo floor and the full-burst ceiling
        per_request = server.cpu_busy_cycles() / 4
        assert 2 * (1_000 + solo) <= per_request <= 2 * (1_000 + crowded)
