"""Unit and integration tests for the repro.cluster subsystem."""

import random

import pytest

from repro.arch.costs import CostModel
from repro.cluster import (
    DESIGNS,
    ClusterConfig,
    ClusterNode,
    ClusterService,
    Fabric,
    LinkSpec,
    LoadBalancer,
    build_cluster,
    run_cluster,
    scaled,
)
from repro.cluster.balancer import POLICIES
from repro.distributed.rpc import EVENT_LOOP, HW_THREADS, SW_THREADS
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


# ----------------------------------------------------------------------
class TestLinkSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkSpec(base_cycles=0)
        with pytest.raises(ConfigError):
            LinkSpec(jitter_mean_cycles=-1.0)
        with pytest.raises(ConfigError):
            LinkSpec(drop_prob=1.0)
        for base in ("10", True, 1500.5):
            with pytest.raises(ConfigError, match="base_cycles"):
                LinkSpec(base_cycles=base)

    def test_sample_delay_at_least_one_cycle(self):
        spec = LinkSpec(base_cycles=1, jitter_mean_cycles=0.0)
        assert spec.sample_delay(random.Random(0)) == 1

    def test_jitter_adds_to_base(self):
        spec = LinkSpec(base_cycles=1_000, jitter_mean_cycles=500.0)
        rng = random.Random(7)
        draws = [spec.sample_delay(rng) for _ in range(200)]
        assert all(d >= 1_000 for d in draws)
        assert len(set(draws)) > 1


def _link_stream(link: str) -> random.Random:
    return random.Random(link)


class TestFabric:
    def _fabric(self, **link):
        engine = Engine()
        return engine, Fabric(engine, _link_stream, link=LinkSpec(**link))

    def test_delivers_after_sampled_delay(self):
        engine, fabric = self._fabric(jitter_mean_cycles=0.0)
        seen = []
        assert fabric.send("client", "node0", seen.append, 42) is True
        assert fabric.in_flight == 1
        engine.run_until_idle()
        assert seen == [42]
        assert fabric.in_flight == 0
        assert (fabric.sent, fabric.delivered, fabric.dropped) == (1, 1, 0)

    def test_drop_returns_false_synchronously(self):
        engine, fabric = self._fabric(drop_prob=0.999999)
        seen = []
        assert fabric.send("a", "b", seen.append, 1) is False
        engine.run_until_idle()
        assert seen == []
        assert fabric.dropped == 1

    def test_mean_delay_counts_carried_only(self):
        _, fabric = self._fabric(jitter_mean_cycles=0.0)
        fabric.send("a", "b", lambda: None)
        assert fabric.mean_delay_cycles() == fabric.link.base_cycles

    def test_per_link_streams_replay_sample_delay(self):
        # each directed link draws from its own stream, so its delays
        # depend only on the traffic that crossed it
        _, fabric = self._fabric(jitter_mean_cycles=300.0)
        links = [("a", "b"), ("a", "c"), ("b", "a"), ("a", "c"),
                 ("a", "b")] * 8
        delays = [fabric.send_traced(src, dst, lambda: None)
                  for src, dst in links]
        replay = {link: _link_stream(f"{link[0]}->{link[1]}")
                  for link in set(links)}
        assert delays == [fabric.link.sample_delay(replay[link])
                          for link in links]


# ----------------------------------------------------------------------
def _nodes(engine, count, design=HW_THREADS, **kwargs):
    return [ClusterNode(engine, i, design, CostModel(), **kwargs)
            for i in range(count)]


class TestLoadBalancer:
    def test_unknown_policy_rejected(self):
        nodes = _nodes(Engine(), 2)
        with pytest.raises(ConfigError):
            LoadBalancer(nodes, "least-conns")

    def test_random_policies_need_rng(self):
        nodes = _nodes(Engine(), 2)
        for policy in ("random", "p2c"):
            with pytest.raises(ConfigError):
                LoadBalancer(nodes, policy)
        LoadBalancer(nodes, "jsq")  # stateless policies do not

    def test_round_robin_cycles(self):
        nodes = _nodes(Engine(), 3)
        balancer = LoadBalancer(nodes, "round-robin")
        picked = [balancer.pick().node_id for _ in range(6)]
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_excluded_without_desync(self):
        nodes = _nodes(Engine(), 3)
        balancer = LoadBalancer(nodes, "round-robin")
        assert balancer.pick(exclude=(nodes[0],)).node_id == 1
        assert balancer.pick().node_id == 2
        assert balancer.pick().node_id == 0

    def test_jsq_prefers_least_loaded_then_lowest_id(self):
        engine = Engine()
        nodes = _nodes(engine, 3)
        balancer = LoadBalancer(nodes, "jsq")
        nodes[0].offer(1, [100.0], 10)
        nodes[1].offer(2, [100.0], 10)
        assert balancer.pick().node_id == 2
        assert balancer.pick(exclude=(nodes[2],)).node_id == 0

    def test_p2c_picks_less_loaded_probe(self):
        engine = Engine()
        nodes = _nodes(engine, 2)
        balancer = LoadBalancer(nodes, "p2c", rng=random.Random(0))
        nodes[0].offer(1, [100.0], 10)
        # both nodes are always probed on a 2-node cluster
        assert balancer.pick().node_id == 1

    def test_exhausted_exclusion_falls_back_to_all(self):
        nodes = _nodes(Engine(), 2)
        balancer = LoadBalancer(nodes, "jsq")
        node = balancer.pick(exclude=tuple(nodes))
        assert node in nodes


# ----------------------------------------------------------------------
class TestClusterNode:
    def test_offer_runs_to_completion(self):
        engine = Engine()
        node = ClusterNode(engine, 0, HW_THREADS)
        done = []
        assert node.offer(1, [500.0, 500.0], 100,
                          on_done=lambda: done.append(engine.now))
        engine.run_until_idle()
        assert done and node.completed == 1
        assert node.conserved() and node.in_flight() == 0

    def test_queue_limit_sheds(self):
        engine = Engine()
        node = ClusterNode(engine, 0, HW_THREADS, queue_limit=1)
        assert node.offer(1, [10_000.0], 10)
        assert not node.offer(2, [10_000.0], 10)
        assert node.rejected == 1
        assert node.conserved()

    def test_conserved_mid_flight(self):
        engine = Engine()
        node = ClusterNode(engine, 0, SW_THREADS)
        for i in range(5):
            node.offer(i, [50_000.0], 10)
        engine.run(until=10_000)  # nothing has finished yet
        assert node.in_flight() == 5
        assert node.conserved()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterNode(Engine(), -1, HW_THREADS)
        with pytest.raises(ConfigError):
            ClusterNode(Engine(), 0, HW_THREADS, queue_limit=0)


# ----------------------------------------------------------------------
def _service(config: ClusterConfig, seed: int = 1) -> ClusterService:
    return build_cluster(config, RngStreams(seed))


class TestClusterService:
    def test_fanout_cannot_exceed_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(nodes=2, fanout=3)

    def test_response_is_max_over_shards(self):
        config = ClusterConfig(nodes=4, fanout=4, requests=1,
                               segments=1, threads_per_peer=0,
                               link=LinkSpec(base_cycles=100,
                                             jitter_mean_cycles=0.0))
        service = _service(config)
        service.submit(1, [100.0, 100.0, 100.0, 50_000.0])
        service.engine.run_until_idle()
        assert service.completed == 1
        # latency dominated by the slow shard, not the fast three
        assert service.recorder.samples[0] > 50_000

    def test_wrong_shard_count_rejected(self):
        config = ClusterConfig(nodes=2, fanout=2)
        service = _service(config)
        with pytest.raises(ConfigError):
            service.submit(1, [100.0])

    def test_conservation_exact_after_lossy_run(self):
        config = ClusterConfig(nodes=4, fanout=4, requests=60,
                               load=0.4, queue_limit=4,
                               link=LinkSpec(drop_prob=0.05))
        result = run_cluster(config, seed=3)
        audit = result.service.conservation()
        assert audit["ok"], audit
        assert result.summary["dropped"] > 0  # loss actually exercised

    def test_hedging_revives_wire_dropped_shards(self):
        base = ClusterConfig(nodes=4, fanout=4, requests=80,
                             link=LinkSpec(drop_prob=0.05))
        plain = run_cluster(base, seed=5).summary
        hedged = run_cluster(scaled(base, hedge_after=16 * base.rtt_cycles),
                             seed=5).summary
        assert plain["dropped"] > 0
        assert hedged["dropped"] < plain["dropped"]
        assert hedged["hedges"] > 0
        assert hedged["conserved"]

    def test_shard_drops_once_its_hedge_fails_too(self):
        """A rejected shard waits for its hedge timer; when the hedge is
        rejected as well, nothing can revive the shard and the request
        drops. A shard with an attempt still in a node does not."""
        config = ClusterConfig(nodes=1, fanout=1, requests=2, segments=1,
                               queue_limit=1, hedge_after=1_000,
                               link=LinkSpec(base_cycles=100,
                                             jitter_mean_cycles=0.0))
        service = _service(config)
        service.submit(1, [1_000_000.0])   # holds the node's one slot
        service.submit(2, [100.0])
        service.engine.run(until=1_099)
        assert service.rejected == 1 and service.dropped == 0
        service.engine.run(until=10_000)
        assert service.hedges_sent == 2 and service.rejected == 3
        assert service.dropped == 1 and service.in_flight == 1
        assert service.conservation()["ok"]


# ----------------------------------------------------------------------
class TestClusterConfig:
    def test_workload_label_is_design_independent(self):
        hw = ClusterConfig(nodes=4, design=DESIGNS["hw-threads"])
        sw = ClusterConfig(nodes=4, design=DESIGNS["sw-threads"])
        assert hw.workload_label() == sw.workload_label()
        assert hw.label() != sw.label()

    def test_mean_gap_offers_configured_load(self):
        config = ClusterConfig(nodes=4, fanout=2, load=0.5,
                               mean_service_cycles=10_000)
        gap = config.mean_gap_cycles()
        offered = config.fanout * config.mean_service_cycles / gap
        assert offered / config.nodes == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(load=0.0)
        with pytest.raises(ConfigError):
            ClusterConfig(requests=0)
        with pytest.raises(ConfigError):
            ClusterConfig(threads_per_peer=-1)
        # a design name is not a design: point at the lookup instead of
        # failing later inside label() or the RPC model
        with pytest.raises(ConfigError, match=r"get_design\(\).*sw-threads"):
            ClusterConfig(design="sw-threads")

    @pytest.mark.parametrize("overrides", [
        dict(link=None),
        dict(nodes=2.0),
        dict(requests=2.5),
        dict(fanout="2"),
        dict(segments=2.0),
        dict(threads_per_peer=4.0),
        dict(shards=1.5),
        dict(rtt_cycles=-5),
        dict(rtt_cycles="10"),
        dict(rtt_cycles=True),
        dict(rtt_cycles=1500.5),
        dict(probe_delay_cycles="10"),
        dict(probe_delay_cycles=True),
        dict(probe_delay_cycles=1500.5),
        dict(policy="fastest"),
        dict(hedge_after=0),
        dict(queue_limit=0),
        dict(mean_service_cycles=0),
        dict(load="x"),
        dict(load=True),
        # a sharded run pipelines a pre-generated request stream, so
        # routing that reads node state cannot shard
        dict(policy="jsq", nodes=8, shards=2),
        dict(policy="p2c", nodes=8, shards=2),
        dict(hedge_after=160_000, nodes=8, shards=2),
        # the zero-cost directory is a test oracle, not a config value
        dict(coherence="null"),
    ], ids=lambda overrides: "-".join(f"{key}-{value}"
                                      for key, value in overrides.items()))
    def test_bad_input_fails_at_construction(self, overrides):
        # each of these used to construct (most then failed or misbehaved
        # mid-run); the error names the first field given
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            ClusterConfig(**overrides)


class TestDeterminism:
    CONFIG = ClusterConfig(nodes=4, fanout=2, requests=40, load=0.3,
                           link=LinkSpec(drop_prob=0.02))

    def test_same_seed_same_summary(self):
        first = run_cluster(self.CONFIG, seed=11).summary
        second = run_cluster(self.CONFIG, seed=11).summary
        assert first == second

    def test_different_seed_differs(self):
        first = run_cluster(self.CONFIG, seed=11).summary
        second = run_cluster(self.CONFIG, seed=12).summary
        assert first["p99"] != second["p99"]

    def test_global_rng_state_is_irrelevant(self):
        random.seed(1234)
        first = run_cluster(self.CONFIG, seed=11).summary
        random.seed(9999)
        for _ in range(100):
            random.random()
        second = run_cluster(self.CONFIG, seed=11).summary
        assert first == second

    def test_common_random_numbers_across_designs(self):
        """hw and sw clusters must face the identical offered workload:
        same arrivals, same placements, same per-shard service draws
        (the engine-time fingerprint of the *fabric* traffic differs
        only via completion times, so compare admission totals)."""
        per_design = {}
        for name in ("hw-threads", "sw-threads"):
            config = scaled(self.CONFIG, design=DESIGNS[name],
                            link=LinkSpec(jitter_mean_cycles=0.0))
            result = run_cluster(config, seed=7)
            per_design[name] = result.summary["issued"]
        assert per_design["hw-threads"] == per_design["sw-threads"]


# ----------------------------------------------------------------------
class TestCrowding:
    def test_sw_overhead_monotone_in_crowd(self):
        costs = CostModel()
        series = [SW_THREADS.transition_overhead_cycles(costs, crowd=c)
                  for c in (0, 8, 32, 64, 256)]
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert series[-1] > series[0]

    def test_crowd_zero_matches_legacy_base(self):
        costs = CostModel()
        base = (costs.sw_switch_cycles + costs.scheduler_cycles
                + costs.sw_switch_cycles + costs.cache_pollution_cycles)
        assert SW_THREADS.transition_overhead_cycles(costs) == base
        assert SW_THREADS.transition_overhead_cycles(costs, crowd=0) == base

    def test_hw_and_event_loop_ignore_crowd(self):
        costs = CostModel()
        for design in (HW_THREADS, EVENT_LOOP):
            assert (design.transition_overhead_cycles(costs, crowd=0)
                    == design.transition_overhead_cycles(costs, crowd=512))

    def test_cache_pollution_term_caps(self):
        costs = CostModel()
        at_cap = SW_THREADS.transition_overhead_cycles(costs, crowd=64)
        past_cap = SW_THREADS.transition_overhead_cycles(costs, crowd=128)
        # only the log term still grows past the cap
        import math
        log_growth = (int(costs.scheduler_cycles * math.log2(1 + 128 / 8))
                      - int(costs.scheduler_cycles * math.log2(1 + 64 / 8)))
        assert past_cap - at_cap == log_growth

    def test_resident_pool_feeds_segment_overhead(self):
        from repro.distributed.rpc import RpcServerModel
        engine = Engine()
        costs = CostModel()
        quiet = RpcServerModel(engine, SW_THREADS, costs)
        crowded = RpcServerModel(engine, SW_THREADS, costs,
                                 resident_threads=64)
        assert quiet.segment_overhead_cycles() \
            == SW_THREADS.transition_overhead_cycles(costs)
        assert crowded.segment_overhead_cycles() \
            == SW_THREADS.transition_overhead_cycles(costs, crowd=64)

    def test_cluster_nodes_pay_more_at_scale(self):
        """The end-to-end mechanism E14 relies on: the same per-node
        load costs sw-threads more in a bigger cluster."""
        small = ClusterConfig(nodes=2, fanout=2, requests=60, load=0.1,
                              design=DESIGNS["sw-threads"],
                              mean_service_cycles=5_000, segments=4)
        big = scaled(small, nodes=16, fanout=8, requests=200)
        p99 = {config.nodes: run_cluster(config, seed=1).summary["p99"]
               for config in (small, big)}
        assert p99[16] > 2 * p99[2]
