"""Tests for the thread-state storage hierarchy and the SMT issue arbiter."""

import pytest

from repro.arch import CostModel
from repro.errors import ConfigError
from repro.hw import StorageTier, ThreadStateStore, WeightedRoundRobinIssue
from repro.hw.ptid import HardwareThread


def make_store(rf_slots=4, l2_slots=4, **kwargs):
    # rf_bytes sized so exactly rf_slots contexts (784B each) fit
    return ThreadStateStore(CostModel(), rf_bytes=rf_slots * 784,
                            l2_slots=l2_slots, **kwargs)


class TestStorageTiers:
    def test_fill_order_rf_then_l2_then_l3(self):
        store = make_store(rf_slots=2, l2_slots=2)
        for ptid in range(6):
            store.register(ptid)
        assert store.occupancy() == {"rf": 2, "l2": 2, "l3": 2}

    def test_start_latency_by_tier_matches_cost_model(self):
        costs = CostModel()
        store = make_store(rf_slots=1, l2_slots=1)
        for ptid in range(3):
            store.register(ptid)
        assert store.tier_of(0) is StorageTier.RF
        assert store.tier_of(1) is StorageTier.L2
        assert store.tier_of(2) is StorageTier.L3
        # starting ptid 2 (L3-resident) costs the L3 latency, then promotes
        latency = store.start_latency(2, evictable=[0, 1])
        assert latency == costs.hw_start_l3_cycles
        assert store.tier_of(2) is StorageTier.RF

    def test_promotion_evicts_lru_idle_context(self):
        store = make_store(rf_slots=2, l2_slots=4)
        for ptid in range(3):
            store.register(ptid)
        store.touch(1)  # 0 is now least recently used
        store.start_latency(2, evictable=[0, 1])
        assert store.tier_of(2) is StorageTier.RF
        assert store.tier_of(0) is not StorageTier.RF  # victim
        assert store.tier_of(1) is StorageTier.RF
        assert store.demotions == 1

    def test_pinned_context_never_evicted(self):
        store = make_store(rf_slots=2, l2_slots=4)
        for ptid in range(3):
            store.register(ptid)
        store.pin(0)
        store.start_latency(2, evictable=[0, 1])
        assert store.tier_of(0) is StorageTier.RF

    def test_no_evictable_context_is_config_error(self):
        store = make_store(rf_slots=1, l2_slots=1)
        store.register(0)
        store.register(1)
        with pytest.raises(ConfigError):
            store.start_latency(1, evictable=[])  # nothing may be demoted

    def test_rf_start_does_not_promote_or_demote(self):
        store = make_store(rf_slots=2)
        store.register(0)
        latency = store.start_latency(0, evictable=[])
        assert latency == CostModel().hw_start_rf_cycles
        assert store.promotions == 0

    def test_evictable_is_read_only_to_make_room(self):
        """The core hands over its idle ptids as a generator: an
        RF-resident start never iterates it, a promotion into a full
        register file does."""
        store = make_store(rf_slots=2, l2_slots=4)
        for ptid in range(3):
            store.register(ptid)
        read = []

        def idle(ptids):
            for ptid in ptids:
                read.append(ptid)
                yield ptid

        store.start_latency(0, idle([1]))
        assert read == []
        store.start_latency(2, idle([0, 1]))
        assert read == [0, 1]
        assert store.tier_of(2) is StorageTier.RF
        assert store.tier_of(1) is StorageTier.L2  # 0 started more recently

    def test_footprint_bytes(self):
        store = make_store(rf_slots=2)
        store.register(0)
        store.register(1)
        assert store.footprint_bytes() == 2 * 784

    def test_duplicate_registration_rejected(self):
        store = make_store()
        store.register(0)
        with pytest.raises(ConfigError):
            store.register(0)

    def test_unknown_ptid_rejected(self):
        with pytest.raises(ConfigError):
            make_store().tier_of(99)

    def test_starts_by_tier_statistics(self):
        store = make_store(rf_slots=1, l2_slots=2)
        store.register(0)
        store.register(1)
        store.start_latency(0, [1])
        store.start_latency(1, [0])
        assert store.starts_by_tier[StorageTier.RF] == 1
        assert store.starts_by_tier[StorageTier.L2] == 1


def _threads(n, priorities=None):
    threads = [HardwareThread(i, core=None) for i in range(n)]
    if priorities:
        for thread, priority in zip(threads, priorities):
            thread.priority = priority
    return threads


class TestRoundRobinIssue:
    """Default priorities: the arbiter is plain fine-grain RR."""

    def test_rotates_fairly(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(4)
        counts = {t.ptid: 0 for t in threads}
        for _ in range(100):
            for picked in policy.select(threads, width=2):
                counts[picked.ptid] += 1
        assert all(count == 50 for count in counts.values())

    def test_width_larger_than_pool(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(2)
        assert len(policy.select(threads, width=8)) == 2

    def test_empty_pool(self):
        assert WeightedRoundRobinIssue().select([], 2) == []

    def test_single_thread_always_picked(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(1)
        for _ in range(5):
            assert policy.select(threads, 2) == threads


class TestPriorityWeightedIssue:
    """Unequal priorities: the arbiter's credit walk weights the picks."""

    def test_priority_4_gets_about_4x_the_slots(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(2, priorities=[4, 1])
        counts = {0: 0, 1: 0}
        for _ in range(1000):
            for picked in policy.select(threads, width=1):
                counts[picked.ptid] += 1
        ratio = counts[0] / counts[1]
        assert 3.0 <= ratio <= 5.0

    def test_no_starvation(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(3, priorities=[10, 1, 1])
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(600):
            for picked in policy.select(threads, width=1):
                counts[picked.ptid] += 1
        assert counts[1] > 0 and counts[2] > 0

    def test_equal_priorities_fair(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(2, priorities=[1, 1])
        counts = {0: 0, 1: 0}
        for _ in range(100):
            for picked in policy.select(threads, width=1):
                counts[picked.ptid] += 1
        assert abs(counts[0] - counts[1]) <= 2

    def test_forget_clears_bookkeeping(self):
        policy = WeightedRoundRobinIssue()
        threads = _threads(2, priorities=[4, 1])
        policy.select(threads, 1)
        assert 0 in policy._credit
        policy.forget(0)
        assert 0 not in policy._credit

    def test_empty_pool(self):
        policy = WeightedRoundRobinIssue()
        policy.select(_threads(3, priorities=[4, 1, 1]), 1)
        assert policy.select([], 2) == []


class TestPriorityOnCore:
    def test_high_priority_interrupt_thread_preempts_sooner(self):
        """Section 4: 'threads used for serving time-sensitive interrupts
        receive more cycles'. A high-priority thread finishes its burst
        much earlier than a same-length low-priority burst under
        contention."""
        from repro.machine import MachineConfig, Machine

        def finish_times(priority):
            config = MachineConfig(hw_threads_per_core=8, smt_width=1)
            machine = Machine(config)
            machine.load_asm(0, "work 2000\nhalt", supervisor=True)
            machine.load_asm(1, "work 2000\nhalt", supervisor=True)
            machine.core(0).set_priority(0, priority)
            machine.boot(0)
            machine.boot(1)
            finish = {}

            def watch():
                while len(finish) < 2:
                    for ptid in (0, 1):
                        if machine.thread(ptid).finished and ptid not in finish:
                            finish[ptid] = machine.engine.now
                    yield 50
            machine.engine.spawn(watch())
            machine.run(until=50_000)
            return finish

        boosted = finish_times(priority=8)
        # with an 8:1 share the boosted thread finishes its 2000-cycle
        # burst in ~2250 cycles; the loser needs ~4000 (50-cycle watcher
        # granularity adds noise)
        assert boosted[0] < boosted[1] * 0.65
