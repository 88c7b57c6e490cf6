"""Tests for the cycle-attribution profiler.

The load-bearing invariant: every core's buckets sum exactly to
``engine.now`` -- on unit-level ledgers and on every registered
experiment end to end.
"""

import pytest

from repro.errors import ConfigError
from repro.obs.profile import BUCKETS, CoreProfile, Profiler
from tests.test_fastforward_equivalence import LONE_MIXED


class TestCoreProfile:
    def test_pend_settle_attributes_interval(self):
        profile = CoreProfile(0)
        profile.pend("stall", 10)
        profile.settle(25)
        assert profile.buckets["stall"] == 15

    def test_settle_without_pend_is_noop(self):
        profile = CoreProfile(0)
        profile.settle(100)
        assert sum(profile.buckets.values()) == 0

    def test_charge_direct(self):
        profile = CoreProfile(0)
        profile.charge("fastforward", 500)
        assert profile.buckets["fastforward"] == 500

    def test_snapshot_folds_pending_and_fills_idle(self):
        profile = CoreProfile(0)
        profile.pend("issue", 0)
        profile.settle(30)
        profile.pend("mwait", 30)  # still waiting when the run stops
        snap = profile.snapshot(100)
        assert snap["issue"] == 30
        assert snap["mwait"] == 70
        assert snap["idle"] == 0
        assert snap["total"] == 100
        assert sum(snap[b] for b in BUCKETS) == 100

    def test_snapshot_remainder_is_idle(self):
        profile = CoreProfile(0)
        profile.charge("issue", 40)
        snap = profile.snapshot(100)
        assert snap["idle"] == 60
        assert sum(snap[b] for b in BUCKETS) == snap["total"] == 100

    def test_over_attribution_raises(self):
        profile = CoreProfile(3)
        profile.charge("issue", 101)
        with pytest.raises(ConfigError):
            profile.snapshot(100)

    def test_accounted_includes_pending(self):
        profile = CoreProfile(0)
        profile.charge("issue", 10)
        profile.pend("stall", 10)
        assert profile.accounted(35) == 35

    def test_pend_split_charges_first_cycle_then_rest(self):
        profile = CoreProfile(0)
        profile.pend_split("issue", 10, "stall")
        assert profile.accounted(16) == 6
        profile.settle(16)
        assert profile.buckets["issue"] == 1
        assert profile.buckets["stall"] == 5
        profile.pend_split("fastforward", 16, "stall")
        profile.settle(17)                 # a one-cycle round: no stall
        assert profile.buckets["fastforward"] == 1
        assert profile.buckets["stall"] == 5
        # stopped on the round's own cycle: nothing elapsed, nothing
        # charged, no bucket negative
        profile.pend_split("issue", 17, "stall")
        snap = profile.snapshot(17)
        assert min(snap.values()) >= 0
        assert (snap["issue"], snap["stall"]) == (1, 5)
        assert sum(snap[b] for b in BUCKETS) == 17
        snap = profile.snapshot(20)        # mid-stall
        assert (snap["issue"], snap["stall"]) == (2, 7)
        assert sum(snap[b] for b in BUCKETS) == 20


class TestMergedStallAttribution:
    """A run stopped on or inside an issue round that parked into a
    merged stall. The expected buckets were recorded from an issue loop
    that resumed after the round's cycle and pended the stall itself:
    sleeping straight through the stall must attribute identically."""

    @pytest.mark.parametrize("until, expected", [
        (1, {"issue": 1, "stall": 0}),     # stopped on the ld round
        (2, {"issue": 2, "stall": 0}),     # one cycle into the round
        (4, {"issue": 2, "stall": 2}),     # mid-stall
        (10, {"issue": 3, "stall": 7}),    # on the div round
        (22, {"issue": 4, "stall": 18}),   # on the st round
        (29, {"issue": 6, "stall": 23}),   # halted
    ])
    def test_stopped_on_a_parking_round(self, until, expected):
        from repro.machine import build_machine

        machine = build_machine(hw_threads_per_core=2, instrument=True)
        buf = machine.alloc("buf", 64)
        machine.load_asm(0, LONE_MIXED, symbols={"BUF": buf.base},
                         supervisor=True)
        machine.boot(0)
        machine.run(until=until)
        assert machine.engine.now == until
        snap = machine.obs.profiler.snapshot(until)["core0"]
        assert min(snap.values()) >= 0
        assert sum(snap[b] for b in BUCKETS) == snap["total"] == until
        assert snap == {**expected, "mwait": 0, "fastforward": 0,
                        "idle": 0, "total": until}


class TestProfiler:
    def test_cores_created_on_touch(self):
        profiler = Profiler()
        profiler.core(2).charge("issue", 5)
        profiler.core(0).charge("idle", 5)
        snap = profiler.snapshot(10)
        assert list(snap) == ["core0", "core2"]
        assert snap["core2"]["issue"] == 5


class TestExperimentsSumExactly:
    """Acceptance criterion: on every registered experiment, every
    core's attribution sums exactly to its machine's engine.now."""

    def experiment_ids(self):
        from repro.experiments import all_experiments
        return [e.experiment_id for e in all_experiments()]

    @pytest.mark.parametrize("experiment_id", [
        f"E{n:02d}" for n in range(1, 19)])
    def test_buckets_sum_to_engine_now(self, experiment_id):
        import repro.obs as obs
        from repro.experiments import get_experiment

        experiment = get_experiment(experiment_id)
        with obs.session(experiment_id) as sess:
            experiment.run(quick=True)
        # analytic / queueing-only experiments build no Machine; the
        # invariant is then vacuous and covered by the machines they
        # do build in the E01/E02/... cases
        for machine in sess.machines:
            now = machine.engine.now
            # snapshot() itself raises on over-attribution; assert the
            # exact-sum side too
            for buckets in machine.obs.profiler.snapshot(now).values():
                assert sum(buckets[b] for b in BUCKETS) == now
                assert buckets["total"] == now

    def test_some_experiments_do_build_machines(self):
        import repro.obs as obs
        from repro.experiments import get_experiment

        with obs.session("E02") as sess:
            get_experiment("E02").run(quick=True)
        assert sess.machines
        assert any(profile.cores
                   for machine in sess.machines
                   for profile in [machine.obs.profiler])

    def test_registry_covers_all_eighteen(self):
        assert self.experiment_ids() == [
            f"E{n:02d}" for n in range(1, 19)]
