"""The coherence subsystem: directory watch bus, remote mwait mailboxes,
sharded TDT, and the cluster/obs plumbing around them.

The load-bearing contract is the identity guarantee: with no model
attached (the default everywhere) and with the zero-cost directory of
``tests/null_directory.py`` (the directory protocol at zero latency)
the simulation is byte-identical to the seed's flat bus -- which is
what lets every E01-E16 result survive this subsystem landing.
"""

import json

import pytest

import repro.obs as obs
from repro.arch.costs import CostModel
from repro.cluster import ClusterConfig, run_cluster, scaled
from repro.cluster.fabric import Fabric, LinkSpec
from repro.coherence import (
    DirectoryModel,
    MailboxWindow,
    RemoteStoreFabric,
    ShardedTdt,
)
from repro.distributed.rpc import SW_THREADS
from repro.errors import ConfigError
from repro.experiments import get_experiment
from repro.hw.tdt import Permission
from repro.machine import build_machine
from repro.mem.memory import Memory
from repro.mem.watch import WatchBus
from repro.sim.engine import Engine
from tests.null_directory import null_directory, null_directory_everywhere

COSTS = CostModel()


class TestDirectoryModel:
    def test_arm_joins_and_cancel_leaves_the_sharer_set(self):
        bus = WatchBus()
        model = bus.coherence = DirectoryModel(COSTS)
        line = 4
        first = bus.watch(line * 64)
        second = bus.watch(line * 64 + 63)     # same line, any byte
        assert model.sharer_count(line) == 2
        assert first.cancel() == COSTS.dir_disarm_cycles
        assert model.sharer_count(line) == 1
        second.cancel()
        # last sharer gone: the entry is deallocated, not left empty
        assert model.lines_tracked() == 0

    def test_arm_returns_the_directory_cost(self):
        bus = WatchBus()
        bus.coherence = DirectoryModel(COSTS)
        watch = bus.watch([])
        assert watch.add_address(0) == COSTS.dir_arm_cycles
        # second address on the *same* line: already in S, free
        assert watch.add_address(32) == 0
        assert watch.add_address(64) == COSTS.dir_arm_cycles

    def test_writer_pays_base_plus_per_sharer(self):
        bus = WatchBus()
        model = bus.coherence = DirectoryModel(COSTS)
        for _ in range(3):
            bus.watch(0)
        bus.notify(8, 1)
        assert model.last_write_cycles == (
            COSTS.dir_inval_base_cycles
            + 3 * COSTS.dir_inval_per_sharer_cycles)
        assert model.writes_shared == 1

    def test_untracked_write_is_free_and_resets_the_bill(self):
        bus = WatchBus()
        model = bus.coherence = DirectoryModel(COSTS)
        bus.watch(0)
        bus.notify(0, 1)
        assert model.last_write_cycles > 0
        bus.notify(640, 1)                      # nobody watches this line
        assert model.last_write_cycles == 0
        assert model.writes_untracked == 1

    def test_forwards_serialize_in_arm_order(self):
        engine = Engine()
        bus = WatchBus()
        model = bus.coherence = DirectoryModel(COSTS, engine=engine)
        woken = []
        for index in range(3):
            watch = bus.watch(0)
            watch.signal.add_waiter(
                lambda info, index=index: woken.append((index, engine.now)))
        engine.at(100, bus.notify, 0, 7, "test")
        engine.run()
        assert [index for index, _ in woken] == [0, 1, 2]
        assert [at - 100 for _, at in woken] == [
            model.wakeup_delay(i) for i in range(3)]

    def test_cancel_while_forward_in_flight_suppresses_the_wakeup(self):
        engine = Engine()
        bus = WatchBus()
        bus.coherence = DirectoryModel(COSTS, engine=engine)
        watch = bus.watch(0)
        fired = []
        watch.signal.add_waiter(fired.append)
        engine.at(100, bus.notify, 0, 7, "test")
        engine.at(101, watch.cancel)            # before the forward lands
        engine.run()
        assert fired == []
        assert bus.total_triggers == 0

    def test_null_model_is_synchronous_and_free(self):
        bus = WatchBus()
        bus.coherence = null_directory(Engine())
        watch = bus.watch(0)
        fired = []
        watch.signal.add_waiter(fired.append)
        assert watch.add_address(128) == 0
        assert bus.notify(0, 7) == 1            # delivered inline
        assert len(fired) == 1
        assert bus.coherence.last_write_cycles == 0

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ConfigError):
            build_machine(coherence="mesi")
        # the zero-cost directory is a test oracle, not a model name
        with pytest.raises(ConfigError, match="coherence"):
            build_machine(coherence="null")


class TestMachineIdentity:
    """A machine on the zero-cost directory == a machine with no model,
    byte for byte; the directory model only ever adds cycles."""

    WAITER = """
        movi r1, FLAG
        monitor r1
        mwait
        movi r2, RESP
        movi r3, 1
        st r2, 0, r3
        halt
    """

    def _run(self, coherence):
        machine = build_machine(coherence=coherence)
        flag = machine.alloc("flag", 64)
        resp = machine.alloc("resp", 64)
        machine.load_asm(0, self.WAITER,
                         symbols={"FLAG": flag.base, "RESP": resp.base},
                         supervisor=True)
        machine.boot(0)
        machine.run(max_events=200)
        wake_at = machine.engine.now + 50
        machine.engine.at(wake_at, machine.memory.store, flag.base, 1, "t")
        machine.run(until=wake_at + 10_000)
        machine.check()
        return machine

    def test_null_matches_seed_byte_identically(self):
        seed = self._run(None).stats()
        with null_directory_everywhere() as attached:
            null = self._run(None).stats()
        assert len(attached) == 1
        assert json.dumps(seed, sort_keys=True) \
            == json.dumps(null, sort_keys=True)

    def test_directory_only_adds_cycles(self):
        seed = self._run(None)
        priced = self._run("directory")
        assert priced.memory.load(
            priced.memory.region("resp").base) == 1
        assert priced.engine.now > seed.engine.now
        assert priced.coherence.forwards >= 1

    #: every experiment whose quick run arms a watch on a machine that
    #: has no coherence model of its own
    WATCHING_EXPERIMENTS = ["E02", "E03", "E08", "E11", "E15", "E16"]

    @pytest.mark.parametrize("experiment_id", WATCHING_EXPERIMENTS)
    def test_quick_json_identical_on_the_zero_cost_directory(
            self, experiment_id, quick_results):
        with null_directory_everywhere():
            null = get_experiment(experiment_id).run(quick=True).to_json()
        assert quick_results[experiment_id].to_json() == null


class TestRemoteStoreFabric:
    def _fabric(self, engine):
        import random
        return Fabric(engine, random.Random,
                      link=LinkSpec(base_cycles=500, jitter_mean_cycles=0.0))

    def test_remote_store_lands_in_the_mailbox(self):
        engine = Engine()
        remote = RemoteStoreFabric(self._fabric(engine))
        memory = Memory(size_bytes=1 << 16)
        region = memory.alloc("mbox", 64)
        remote.register("nodeA", memory, region.base)
        delivery = remote.remote_store("client", "nodeA", 2, 99)
        assert delivery == 500
        engine.run()
        assert memory.load(region.base + 2 * 8) == 99
        assert remote.stores_delivered == 1

    def test_remote_store_wakes_a_watcher(self):
        engine = Engine()
        remote = RemoteStoreFabric(self._fabric(engine))
        memory = Memory(size_bytes=1 << 16)
        region = memory.alloc("mbox", 64)
        remote.register("nodeA", memory, region.base)
        fired = []
        memory.watch_bus.subscribe(region.base, fired.append)
        remote.remote_store("client", "nodeA", 0, 7)
        engine.run()
        assert fired and fired[0]["value"] == 7
        assert fired[0]["source"] == "rdma:client"

    def test_unknown_destination_rejected(self):
        remote = RemoteStoreFabric(self._fabric(Engine()))
        with pytest.raises(ConfigError):
            remote.remote_store("client", "nowhere", 0, 1)

    def test_mailbox_word_bounds(self):
        window = MailboxWindow("n", Memory(size_bytes=1 << 12), 0, words=4)
        assert window.addr(3) == 24
        with pytest.raises(ConfigError):
            window.addr(4)


class TestShardedTdt:
    def _tdt(self, shards=4, **kw):
        memories = [Memory(size_bytes=1 << 16) for _ in range(shards)]
        return ShardedTdt.build(memories, population=64, costs=COSTS, **kw)

    def test_home_resolution_uses_the_local_cache(self):
        tdt = self._tdt()
        entry, cold = tdt.resolve(1, 5)         # 5 % 4 == 1: home shard
        assert entry.ptid == 5 % 32
        _, warm = tdt.resolve(1, 5)
        assert cold == COSTS.tdt_miss_cycles
        assert warm == COSTS.tdt_lookup_cycles
        assert tdt.remote_misses == 0

    def test_remote_resolution_pays_the_fabric_then_caches(self):
        tdt = self._tdt()
        _, cold = tdt.resolve(0, 5)
        _, warm = tdt.resolve(0, 5)
        assert cold == COSTS.tdt_cross_shard_cycles + COSTS.tdt_miss_cycles
        assert warm == COSTS.tdt_lookup_cycles
        assert (tdt.remote_misses, tdt.remote_hits) == (1, 1)

    def test_remote_cache_evicts_fifo(self):
        tdt = self._tdt(remote_cache_entries=2)
        tdt.resolve(0, 1)
        tdt.resolve(0, 2)
        tdt.resolve(0, 3)                       # evicts vtid 1
        _, again = tdt.resolve(0, 1)
        assert again == COSTS.tdt_cross_shard_cycles + COSTS.tdt_miss_cycles

    def test_invtid_broadcasts_to_every_cache(self):
        tdt = self._tdt()
        for caller in range(4):
            tdt.resolve(caller, 5)
        tdt.update(5, ptid=9, permissions=Permission.ALL)
        for caller in range(4):
            entry, cycles = tdt.resolve(caller, 5)
            assert entry.ptid == 9              # update visible post-invtid
            assert cycles >= COSTS.tdt_miss_cycles
        assert tdt.invalidations == 1

    def test_build_homes_every_vtid(self):
        tdt = self._tdt()
        assert all(tdt.home(v) == v % 4 for v in range(64))
        assert tdt.tables[2].get_entry(2).ptid == 2 % 32

    def test_caller_shard_validated(self):
        with pytest.raises(ConfigError):
            self._tdt().resolve(9, 0)
        with pytest.raises(ConfigError):
            ShardedTdt([], costs=COSTS)


class TestClusterCoherence:
    def _config(self, **overrides):
        defaults = dict(nodes=2, design=SW_THREADS, fanout=1, requests=4,
                        mean_service_cycles=4_000, rtt_cycles=4_000,
                        backend="isa", coherence="directory",
                        link=LinkSpec(base_cycles=2_000,
                                      jitter_mean_cycles=250.0))
        defaults.update(overrides)
        return ClusterConfig(**defaults)

    def test_coherence_requires_the_isa_backend(self):
        with pytest.raises(ConfigError):
            self._config(backend="model")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            self._config(coherence="mesi")

    def test_label_carries_the_model(self):
        assert self._config().label().endswith(".coh-directory")
        assert ".coh-" not in self._config(coherence="off").label()

    def test_cluster_runs_and_snapshots_directory_counters(self):
        config = self._config()
        with obs.session("coh") as sess:
            run_cluster(config, seed=13)
        counters = sess.snapshot()["metrics"]["counters"]
        arms = [v for k, v in counters.items()
                if k.startswith("coherence.directory") and k.endswith(".arms")]
        assert len(arms) == config.nodes
        assert sum(arms) > 0

    def test_sharded_snapshot_byte_identical_with_coherence_on(self):
        # the PR 6/7 obs-merge contract extended to coherence.*: a PDES
        # shard worker's machines register their directory sources where
        # they live and ship them home in global node order
        config = self._config(nodes=4, fanout=2, requests=8)

        def snapshot(cfg):
            with obs.session("coh-pdes") as sess:
                run_cluster(cfg, seed=13)
            return sess.snapshot()

        assert snapshot(config) == snapshot(scaled(config, shards=2))
