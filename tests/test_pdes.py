"""Tests for repro.cluster.pdes: conservative parallel-in-time sharding.

The contract under test is strong: a sharded run must be *byte
identical* to the single-engine run -- same summary, same latency
quantiles, same obs snapshot -- because every shard replays exactly
the RNG draws its own nodes and links would have made on the shared
engine. The conservative protocol (lookahead = the client->node link's
base latency) guarantees no shard ever has to deliver a message into its
committed past; the causality tests pin that guarantee down.
"""

import json
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.pdes as pdes
import repro.obs as obs
import repro.obs.spans as spans
from repro.cluster import (
    CausalityError,
    ClusterConfig,
    request_lookahead,
    run_cluster,
    run_sharded,
    scaled,
)
from repro.cluster.balancer import STATE_FREE_POLICIES
from repro.cluster.fabric import LinkSpec
from repro.cluster.pdes import ShardWorker, shard_node_ids
from repro.distributed.rpc import SW_THREADS
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import Engine


def _link(drop_prob: float = 0.0) -> LinkSpec:
    return LinkSpec(base_cycles=2_000, jitter_mean_cycles=250.0,
                    drop_prob=drop_prob)


def _config(**overrides) -> ClusterConfig:
    """Small but non-trivial: multiple nodes per shard, fanout > 1."""
    defaults = dict(nodes=8, design=SW_THREADS, fanout=4, requests=40,
                    mean_service_cycles=8_000, rtt_cycles=4_000,
                    link=_link())
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _fingerprint(result) -> str:
    """Everything a run reports, as one canonical string."""
    stats = result.service.recorder.summary()
    return json.dumps({"summary": result.summary,
                       "p50": stats.p50, "p95": stats.p95,
                       "p99": stats.p99, "mean": stats.mean},
                      sort_keys=True)


# ----------------------------------------------------------------------
class TestShardNodeIds:
    def test_striped_partition(self):
        assert shard_node_ids(8, 3) == [[0, 3, 6], [1, 4, 7], [2, 5]]

    def test_one_shard_is_identity(self):
        assert shard_node_ids(4, 1) == [[0, 1, 2, 3]]

    def test_bounds_rejected(self):
        with pytest.raises(ConfigError):
            shard_node_ids(4, 5)
        with pytest.raises(ConfigError):
            shard_node_ids(4, 0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            run_cluster(_config(shards=2), transport="carrier-pigeon")


class TestLabelsIgnoreShards:
    """Sharding must not perturb a single RNG stream: both label
    variants -- the stream prefix and the human label -- are the same
    for shards=1 and shards=N, so every named stream draws the same
    sequence on either side."""

    def test_workload_label_unchanged(self):
        base = _config()
        for shards in (2, 4, 8):
            assert (scaled(base, shards=shards).workload_label()
                    == base.workload_label())

    def test_label_unchanged(self):
        base = _config()
        assert scaled(base, shards=4).label() == base.label()


# ----------------------------------------------------------------------
#: Per-case overrides for the identity test: request-wire drops happen
#: in the generation pass; response-wire drops and admission rejections
#: are shipped home by the workers.
_CASES = {
    None: {},
    "lossy-0.05": dict(link=_link(drop_prob=0.05)),
    "lossy-0.2": dict(link=_link(drop_prob=0.2)),
    "queue-3": dict(queue_limit=3),
}


class TestByteIdentity:
    """The headline acceptance: shards=N reproduces shards=1 exactly."""

    def _observed(self, config, **run_kwargs):
        """A run's summary fingerprint, obs snapshot and span payload."""
        with obs.session("pdes") as sess, spans.tracing() as store:
            result = run_cluster(config, seed=11, **run_kwargs)
        return result, (_fingerprint(result), sess.snapshot(),
                        json.dumps(store.payload(), sort_keys=True))

    @pytest.mark.parametrize("case", list(_CASES))
    @pytest.mark.parametrize("policy", STATE_FREE_POLICIES)
    def test_matches_single_engine(self, policy, case):
        config = _config(policy=policy, **_CASES[case])
        single, expected = self._observed(config)
        sharded, observed = self._observed(scaled(config, shards=4),
                                           transport="inline")
        assert observed == expected
        assert sharded.pdes["shards"] == 4
        # the case exercised what it names
        service = single.service
        if case and case.startswith("lossy"):
            assert service.request_wire_drops > 0
            assert service.response_wire_drops > 0
        if case == "queue-3":
            assert service.rejected > 0

    def test_state_aware_routing_rejected(self):
        """The pipeline generates the request stream ahead of the
        workers, so only state-free routing shards: jsq, p2c and
        hedging raise at construction, naming the policies that do."""
        for overrides in (dict(policy="jsq"), dict(policy="p2c"),
                          dict(hedge_after=30_000),
                          dict(policy="random", hedge_after=1)):
            with pytest.raises(ConfigError,
                               match="'random' or 'round-robin'"):
                _config(shards=2, **overrides)
            _config(**overrides)  # one engine routes on anything
        with pytest.raises(ConfigError, match="shards >= 2"):
            run_sharded(_config(policy="jsq"))
        result = run_cluster(_config(shards=2), seed=3, transport="inline")
        assert set(result.pdes) == {
            "lookahead", "windows", "min_slack", "worker_events",
            "transport", "shards"}

    def test_partition_count_is_invisible(self):
        """2, 3, and 4 shards cut the node set differently yet report
        the same run: the partition is pure bookkeeping."""
        for policy in STATE_FREE_POLICIES:
            config = _config(policy=policy)
            prints = {shards: _fingerprint(
                          run_cluster(scaled(config, shards=shards), seed=5,
                                      transport="inline"))
                      for shards in (1, 2, 3, 4)}
            assert len(set(prints.values())) == 1

    def test_process_transport_matches(self):
        """Real worker processes (the default transport) agree with
        both the inline debug mode and the single engine."""
        config = _config(policy="round-robin")
        single = run_cluster(config, seed=9)
        procs = run_cluster(scaled(config, shards=2), seed=9,
                            transport="process")
        assert _fingerprint(procs) == _fingerprint(single)
        assert procs.pdes["transport"] == "process"

    def test_process_transport_sheds_and_drops(self):
        """Admission rejections and both kinds of wire drop cross a real
        pipe too: over worker processes, a bounded cluster on lossy
        links reports the single engine's summary, obs snapshot and
        span payload."""
        config = _config(queue_limit=3, link=_link(drop_prob=0.05))
        _single, expected = self._observed(config)
        sharded, observed = self._observed(scaled(config, shards=2),
                                           transport="process")
        assert observed == expected
        assert sharded.pdes["transport"] == "process"
        service = sharded.service
        assert service.rejected > 0
        assert service.request_wire_drops > 0
        assert service.response_wire_drops > 0


# ----------------------------------------------------------------------
class TestCausality:
    """The conservative protocol's safety net."""

    def _worker(self) -> ShardWorker:
        return ShardWorker(_config(), node_ids=[0, 4])

    def test_inject_into_committed_past_raises(self):
        worker = self._worker()
        worker.advance(10_000)
        with pytest.raises(CausalityError):
            worker.inject([(9_000, 10_000, 1, 0, 5_000.0)])

    def test_advance_backwards_raises(self):
        worker = self._worker()
        worker.advance(10_000)
        with pytest.raises(CausalityError):
            worker.advance(9_999)

    def test_future_delivery_accepted(self):
        worker = self._worker()
        worker.advance(10_000)
        worker.inject([(9_000, 10_001, 1, 0, 5_000.0)])
        shed, done, _events = worker.advance(200_000)
        assert shed == []
        [(finished_at, node_id, attempt_id)] = done
        assert (node_id, attempt_id) == (0, 1)
        assert finished_at > 10_001

    @given(nodes=st.integers(min_value=2, max_value=8),
           shards=st.integers(min_value=2, max_value=4),
           base=st.integers(min_value=1_000, max_value=20_000),
           seed=st.integers(min_value=0, max_value=2**16),
           policy=st.sampled_from(STATE_FREE_POLICIES))
    @settings(max_examples=12, deadline=None)
    def test_no_message_beats_the_lookahead(self, nodes, shards, base,
                                            seed, policy):
        """Property: across random topologies, every cross-shard
        request's slack (deliver - send) is at least the advertised
        lookahead -- no message is ever delivered earlier than its
        send time plus the minimum link latency, so no shard window
        can miss one."""
        if shards > nodes:
            shards = nodes
        config = _config(nodes=nodes, fanout=min(2, nodes),
                         requests=12, policy=policy, shards=shards,
                         link=LinkSpec(base_cycles=base,
                                       jitter_mean_cycles=base / 4))
        result = run_cluster(config, seed=seed, transport="inline")
        pdes = result.pdes
        assert pdes["lookahead"] == request_lookahead(config)
        assert pdes["lookahead"] == base
        if pdes["min_slack"] is not None:
            assert pdes["min_slack"] >= pdes["lookahead"]

    def test_min_slack_reported(self):
        """The audit trail actually observed traffic (not vacuous)."""
        result = run_cluster(_config(shards=2), seed=2,
                             transport="inline")
        assert result.pdes["min_slack"] is not None
        assert result.pdes["windows"] >= 1


class TestProxyNode:
    """The client-side proxy takes its verdicts and completions from the
    worker, and the end-of-run cross-check holds it to the worker's
    counts."""

    def test_verdicts_and_completions(self):
        proxy = pdes._ProxyNode(Engine(), 3, SW_THREADS)
        proxy.shed.add(1)
        assert not proxy.offer(1, [1.0], 0)
        finished = []
        assert proxy.offer(2, [1.0], 0, on_done=lambda: finished.append(2))
        assert (proxy.admitted, proxy.rejected, proxy.in_flight()) == (1, 1, 1)
        proxy.finish(2)
        assert finished == [2] and proxy.conserved()
        for attempt in (1, 2, 3):  # shed, already finished, never offered
            with pytest.raises(SimulationError, match="never admitted"):
                proxy.finish(attempt)

    def test_final_stats_cross_check(self):
        proxy = pdes._ProxyNode(Engine(), 0, SW_THREADS)
        assert proxy.offer(1, [1.0], 0)
        with pytest.raises(SimulationError, match="diverged for node0"):
            pdes._fold_final_stats([proxy], [{0: (1, 1, 0, 0, 500)}])
        pdes._fold_final_stats([proxy], [{0: (1, 0, 0, 1, 500)}])
        assert proxy.busy_cycles() == 500


class TestWorkerLoss:
    """A worker process that dies mid-run raises a typed error naming
    its shard, and the run leaves no worker process behind."""

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="needs SIGKILL")
    def test_killed_worker_raises_simulation_error(self, monkeypatch):
        started = []
        real_init = pdes._ProcessShard.__init__
        real_send = pdes._ProcessShard.send

        def init(shard, *args, **kwargs):
            real_init(shard, *args, **kwargs)
            started.append(shard)

        def send(shard, msg):
            # SIGKILL worker 0 before it is asked to advance at all
            victim = started[0].proc
            if msg[0] == "advance" and victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
            real_send(shard, msg)

        monkeypatch.setattr(pdes._ProcessShard, "__init__", init)
        monkeypatch.setattr(pdes._ProcessShard, "send", send)
        begin = time.monotonic()
        with pytest.raises(SimulationError,
                           match=r"shard 0 worker \(pid \d+\).*exit code -9"):
            run_cluster(_config(shards=2), seed=1, transport="process")
        assert time.monotonic() - begin < 30
        assert len(started) == 2
        for shard in started:
            assert not shard.proc.is_alive()
            assert shard.proc.exitcode is not None


# ----------------------------------------------------------------------
def _flatten(value, path=""):
    out = {}
    if isinstance(value, dict):
        for key in value:
            out.update(_flatten(value[key], f"{path}.{key}" if path
                                else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{path}[{index}]"))
    else:
        out[path] = value
    return out


class TestObsMerge:
    """Sharded observability: worker-side sessions ship home and replay
    into the client session so the merged snapshot equals the
    single-engine one (see repro.obs.merge)."""

    def _snapshot(self, config, transport="inline"):
        with obs.session("pdes") as sess:
            run_cluster(config, seed=13, transport=transport)
        return sess.snapshot()

    def test_model_snapshot_byte_identical(self):
        for policy in STATE_FREE_POLICIES:
            config = _config(policy=policy, requests=24)
            single = self._snapshot(config)
            sharded = self._snapshot(scaled(config, shards=4))
            assert single == sharded

    def test_process_transport_snapshot_matches_inline(self):
        config = _config(requests=24, shards=2)
        assert (self._snapshot(config, "process")
                == self._snapshot(config, "inline"))

    def test_isa_snapshot_byte_identical(self):
        """ISA machines run on the hosting engine, yet the snapshot
        must not betray which engine hosted them: ``engine.*`` counters
        are harvested only from engine-owning machines, and the
        profiler's issue/fastforward split is attributed from
        simulation state (all-issueable-threads-mid-work), never from
        whether a batch actually fired. With both host artifacts closed
        at the source, sharded ISA snapshots are fully byte-identical."""
        config = _config(nodes=4, fanout=2, requests=8, backend="isa",
                         mean_service_cycles=4_000)
        single = self._snapshot(config)
        sharded = self._snapshot(scaled(config, shards=2))
        assert single == sharded

    def test_isa_snapshot_has_no_host_engine_counters(self):
        """The closed carve-out, pinned from the other side: a cluster
        ISA machine lives on a shared engine it does not own, so the
        host's event totals must not appear in the snapshot at all."""
        snapshot = self._snapshot(
            _config(nodes=2, fanout=1, requests=4, backend="isa",
                    mean_service_cycles=4_000))
        assert not any(name.startswith("engine.")
                       for name in snapshot["metrics"]["counters"])


class TestObsMergeEdgeCases:
    """Degenerate merge inputs: nodes that serve nothing, whole shards
    that serve nothing, a one-node cluster, and sessions whose only
    content is a timeline (no registered metric sources)."""

    def _snapshot(self, config, transport="inline"):
        with obs.session("pdes") as sess:
            run_cluster(config, seed=13, transport=transport)
        return sess.snapshot()

    def test_zero_request_node_matches(self):
        # two round-robin requests over four nodes at fanout 1: nodes
        # 2 and 3 admit nothing, yet still ship their (empty) server
        # metrics home
        config = _config(nodes=4, fanout=1, requests=2)
        assert (self._snapshot(scaled(config, shards=2))
                == self._snapshot(config))

    def test_empty_shard_matches(self):
        # a single request lands on one node; every other shard's
        # session crosses the pipe with zero admitted requests
        config = _config(nodes=4, fanout=1, requests=1)
        assert (self._snapshot(scaled(config, shards=4))
                == self._snapshot(config))

    def test_single_node_cluster_matches(self):
        config = _config(nodes=1, fanout=1, requests=10)
        assert (self._snapshot(scaled(config, shards=1))
                == self._snapshot(config))

    def test_timeline_only_session_snapshots(self):
        # no machines, no metric sources: only a component track
        from repro.obs.timeline import ThreadState
        with obs.session("timeline-only") as sess:
            track = sess.register_track("queue0")
            sess.timeline.transition(track, 0, ThreadState.RUNNING, 0)
            sess.timeline.transition(track, 0, ThreadState.MWAIT, 50)
            sess.timeline.finish(80)
        snapshot = sess.snapshot()
        assert snapshot["machines"] == 0
        assert snapshot["metrics"]["counters"] == {}
        assert snapshot["timeline"]["spans"] == 2
        assert snapshot["timeline"]["open"] == 0

    def test_import_timeline_remaps_and_roundtrips(self):
        # the merge primitive itself: shipped rows replay under new
        # track ids, open spans stay open
        from repro.obs.merge import import_timeline
        from repro.obs.timeline import ThreadState, Timeline
        source = Timeline()
        source.transition(0, 1, ThreadState.RUNNING, 10)
        source.transition(0, 1, ThreadState.MWAIT, 30)
        source.instant(0, 1, "wakeup", 30)
        rows = [(s.core_id, s.ptid, s.state, s.begin, s.end)
                for s in source.spans]
        instants = [(i.core_id, i.ptid, i.name, i.at)
                    for i in source.instants]
        target = Timeline()
        import_timeline(target, rows, instants, source.open_spans(),
                        idmap={0: 7})
        assert [(s.core_id, s.ptid, s.begin, s.end)
                for s in target.spans] == [(7, 1, 10, 30)]
        assert target.instants[0].core_id == 7
        assert target.open_spans() == [(7, 1, ThreadState.MWAIT, 30)]

    def test_import_empty_timeline_is_a_noop(self):
        from repro.obs.merge import import_timeline
        from repro.obs.timeline import Timeline
        target = Timeline()
        import_timeline(target, [], [], [], idmap={})
        assert len(target.spans) == 0
        assert len(target.instants) == 0
        assert target.open_spans() == []


# ----------------------------------------------------------------------
class TestLookahead:
    def test_uniform_topology(self):
        config = _config(link=LinkSpec(base_cycles=3_333))
        assert request_lookahead(config) == 3_333
