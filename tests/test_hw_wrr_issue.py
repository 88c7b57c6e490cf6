"""Unit tests for the credit-based weighted-round-robin arbiter.

The core's one issue arbiter: a ptid-ordered ring, a rotation pointer,
and one integer credit counter per thread. E18 measures its steady-state
shares at machine level; these tests pin the arbitration mechanics
directly.
"""

import pytest

from repro.errors import ConfigError
from repro.hw.issue import WeightedRoundRobinIssue
from repro.machine import build_machine
from tests.rr_reference import RoundRobinIssue


#: always issueable, one cycle per instruction: one pick every round
_SPIN = "loop:\n    addi r1, r1, 1\n    jmp loop"


class _Thread:
    __slots__ = ("ptid", "priority")

    def __init__(self, ptid, priority=1):
        self.ptid = ptid
        self.priority = priority


def _stream(policy, threads, width, rounds):
    picks = []
    for _ in range(rounds):
        picks.extend(t.ptid for t in policy.select(threads, width))
    return picks


class TestCreditWalk:
    def test_shares_proportional_to_weights(self):
        threads = [_Thread(0, 4), _Thread(1, 2), _Thread(2, 1)]
        policy = WeightedRoundRobinIssue()
        for t in threads:
            policy.note_enqueue(t)
        picks = _stream(policy, threads, width=1, rounds=7 * 40)
        counts = {p: picks.count(p) for p in (0, 1, 2)}
        # 40 full frames of sum(weights)=7 picks: exactly proportional
        assert counts == {0: 4 * 40, 1: 2 * 40, 2: 1 * 40}

    def test_every_thread_served_each_frame(self):
        """No starvation: within any window of sum(weights) picks,
        every backlogged thread appears at least once."""
        threads = [_Thread(0, 5), _Thread(1, 1), _Thread(2, 1)]
        policy = WeightedRoundRobinIssue()
        for t in threads:
            policy.note_enqueue(t)
        picks = _stream(policy, threads, width=1, rounds=7 * 10)
        frame = sum(t.priority for t in threads)
        for start in range(0, len(picks) - frame + 1, frame):
            window = picks[start:start + frame]
            assert {0, 1, 2} <= set(window)

    def test_uncontended_rotation_touches_no_credits(self):
        threads = [_Thread(0, 4), _Thread(1, 1)]
        policy = WeightedRoundRobinIssue()
        for t in threads:
            policy.note_enqueue(t)
        before = dict(policy._credit)
        for _ in range(3):
            picked = policy.select(threads, width=4)
            assert [t.ptid for t in picked] == [0, 1]
        assert policy._credit == before       # nothing to arbitrate

    def test_note_enqueue_grants_fresh_frame(self):
        thread = _Thread(3, 6)
        policy = WeightedRoundRobinIssue()
        policy.note_enqueue(thread)
        assert policy._credit[3] == 6

    def test_forget_drops_counter(self):
        thread = _Thread(2, 3)
        policy = WeightedRoundRobinIssue()
        policy.note_enqueue(thread)
        policy.forget(2)
        assert 2 not in policy._credit
        policy.forget(2)                       # idempotent

    def test_refill_carries_deficit(self):
        """Partial frames carry over: += (not =) on refill keeps
        long-run shares exact."""
        threads = [_Thread(0, 2), _Thread(1, 1)]
        policy = WeightedRoundRobinIssue()
        for t in threads:
            policy.note_enqueue(t)
        picks = _stream(policy, threads, width=1, rounds=3 * 20)
        assert picks.count(0) == 2 * picks.count(1)

    def test_matches_rr_at_uniform_weights(self):
        threads = [_Thread(p) for p in range(5)]
        rr, wrr = RoundRobinIssue(), WeightedRoundRobinIssue()
        for t in threads:
            rr.note_enqueue(t)
            wrr.note_enqueue(t)
        for width in (1, 2, 3):
            assert (_stream(rr, threads, width, 30)
                    == _stream(wrr, threads, width, 30))

    def test_fastforward_contract_flags(self):
        """The planner batches contended rounds only while the pool is
        picked in RR rotation; the cached answer follows membership
        changes and :meth:`note_priority`."""
        threads = [_Thread(p) for p in range(3)]
        policy = WeightedRoundRobinIssue()
        assert policy.uniform(threads)
        threads[1].priority = 3
        assert policy.uniform(threads)           # cached until told
        policy.note_priority()
        assert not policy.uniform(threads)
        assert policy.uniform([threads[0], threads[2]])   # new pool
        assert not policy.uniform(threads)


class TestMachineIntegration:
    def test_wrr_policy_config(self):
        machine = build_machine(cores=2)
        for core in machine.chip.cores:
            assert core.arbiter.name == "weighted-round-robin"

    def test_unknown_policy_rejected(self):
        # the arbiter follows the threads' priorities; there is no
        # policy to choose, and the old knob is an unknown config name
        with pytest.raises(ConfigError, match="issue_policy") as err:
            build_machine(issue_policy="wrr")
        assert "smt_width" in str(err.value)     # lists the known fields

    def test_weighted_progress_under_contention(self):
        """Two always-issueable counting loops, smt_width 1: the
        priority-4 thread retires ~4x the instructions of priority-1."""
        machine = build_machine(smt_width=1, hw_threads_per_core=2)
        for ptid, weight in ((0, 4), (1, 1)):
            machine.load_asm(ptid, "loop:\n    addi r1, r1, 1\n    jmp loop",
                             supervisor=True)
            machine.core(0).set_priority(ptid, weight)
            machine.boot(ptid)
        machine.run(until=20_000)
        fast = machine.thread(0).instructions_executed
        slow = machine.thread(1).instructions_executed
        assert fast / slow == pytest.approx(4.0, rel=0.02)


def _record_rounds(core):
    """Log every select on ``core``: (pool size, picked ptids, whether
    the credit walk ran). Only the credit walk touches credits -- the
    round-robin path and the uncontended path leave them alone -- so a
    changed credit map marks a weighted round."""
    arbiter = core.arbiter
    select = arbiter.select
    rounds = []

    def recorded(issueable, width):
        before = dict(arbiter._credit)
        picked = select(issueable, width)
        rounds.append((len(issueable), [t.ptid for t in picked],
                       arbiter._credit != before))
        return picked

    arbiter.select = recorded   # before the first run: the loop hoists it
    return rounds


class TestPriorityChanges:
    """The arbiter caches whether its pool's weights are uniform; every
    priority write must reach that cache, so the switch between the RR
    stream and the credit walk lands on the very next round."""

    def test_set_priority_on_a_runnable_thread(self):
        machine = build_machine(smt_width=1, hw_threads_per_core=3)
        for ptid in range(3):
            machine.load_asm(ptid, _SPIN, supervisor=True)
            machine.boot(ptid)
        core = machine.core(0)
        rounds = _record_rounds(core)
        machine.run(until=20)
        reference = RoundRobinIssue()
        threads = [_Thread(p) for p in range(3)]
        assert [picks for _, picks, _ in rounds] == [
            [t.ptid for t in reference.select(threads, 1)]
            for _ in rounds]
        assert not any(weighted for _, _, weighted in rounds)

        core.set_priority(0, 3)
        seen = len(rounds)
        machine.run(until=21)            # exactly one more round
        assert len(rounds) == seen + 1
        assert rounds[seen][2]           # weighted on the very next round
        machine.run(until=60)
        assert all(weighted for _, _, weighted in rounds[seen:])
        picks = [picks[0] for _, picks, _ in rounds[seen:]]
        assert picks.count(0) == pytest.approx(len(picks) * 3 / 5, abs=2)

        core.set_priority(0, 1)
        reference._next = core.arbiter._next
        seen = len(rounds)
        machine.run(until=80)
        assert not any(weighted for _, _, weighted in rounds[seen:])
        assert [picks for _, picks, _ in rounds[seen:]] == [
            [t.ptid for t in reference.select(threads, 1)]
            for _ in rounds[seen:]]

    def test_migrate_carries_a_non_unit_priority(self):
        machine = build_machine(cores=2, smt_width=1, hw_threads_per_core=4)
        dest = machine.core(1)
        for ptid in (0, 2):
            machine.load_asm(ptid, _SPIN, core_id=1, supervisor=True)
            machine.boot(ptid, core_id=1)
        # a stopped weight-4 context on core 0 (loaded, never started)
        machine.load_asm(3, _SPIN, core_id=0, supervisor=True)
        machine.core(0).set_priority(3, 4)
        rounds = _record_rounds(dest)
        machine.run(until=20)
        assert not any(weighted for _, _, weighted in rounds)

        # swap the weight-4 context into ptid 2, which core 1's arbiter
        # last saw in its (uniform) pool; while the transfer latency
        # runs, ptid 0 issues alone and the pool seen by the arbiter
        # does not change again until ptid 2 rejoins it
        dest.api_stop(2)
        latency = machine.chip.migrate(0, 3, 1, 2)
        dest.api_start(2, charge=False)
        seen = len(rounds)
        machine.run(until=20 + latency + 60)
        after = rounds[seen:]
        rejoined = next(i for i, (n, _, _) in enumerate(after) if n == 2)
        assert all(picks == [0] for _, picks, _ in after[:rejoined])
        assert after[rejoined][2]        # weighted on the very next round
        picks = [picks[0] for _, picks, _ in after[rejoined:]]
        assert picks.count(2) == pytest.approx(len(picks) * 4 / 5, abs=2)
