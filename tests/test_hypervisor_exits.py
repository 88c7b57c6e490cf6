"""Tests for VM-exit paths and the guest model."""

import pytest

from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.hypervisor import (
    ExitReason,
    GuestVm,
    HwThreadExitPath,
    InThreadExitPath,
    SplitXExitPath,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


def run_guest(path_cls, total_work=100_000, interval=5_000, **kwargs):
    engine = Engine()
    path = path_cls(engine, CostModel(), **kwargs)
    guest = GuestVm(engine, path, total_work, interval)
    engine.run()
    return path, guest


class TestOverheads:
    def test_in_thread_is_vm_exit_cost(self):
        costs = CostModel()
        path = InThreadExitPath(Engine(), costs)
        assert path.overhead_cycles() == costs.vm_exit_cycles

    def test_hw_thread_is_stop_plus_two_starts(self):
        costs = CostModel()
        path = HwThreadExitPath(Engine(), costs)
        assert path.overhead_cycles() \
            == costs.hw_stop_cycles + 2 * costs.hw_start_rf_cycles

    def test_splitx_is_two_comm_hops(self):
        path = SplitXExitPath(Engine(), comm_cycles=250)
        assert path.overhead_cycles() == 500

    def test_ordering_hw_cheapest(self):
        costs = CostModel()
        engine = Engine()
        hw = HwThreadExitPath(engine, costs).overhead_cycles()
        sx = SplitXExitPath(engine, costs).overhead_cycles()
        it = InThreadExitPath(engine, costs).overhead_cycles()
        assert hw < sx < it


class TestGuestVm:
    def test_exit_count_matches_intervals(self):
        path, guest = run_guest(InThreadExitPath,
                                total_work=100_000, interval=10_000)
        # work of 100k at 10k intervals -> 9 interior exits
        assert path.exits == 9

    def test_slowdown_above_one(self):
        _path, guest = run_guest(InThreadExitPath)
        assert guest.slowdown() > 1.0

    def test_slowdown_ordering(self):
        slowdowns = {}
        for cls in (InThreadExitPath, SplitXExitPath, HwThreadExitPath):
            _path, guest = run_guest(cls)
            slowdowns[cls.__name__] = guest.slowdown()
        assert slowdowns["HwThreadExitPath"] \
            < slowdowns["SplitXExitPath"] \
            < slowdowns["InThreadExitPath"]

    def test_frequent_exits_slow_only_the_in_thread_guest(self):
        # an exit every 5k cycles: over 20% for in-thread, under for hw
        _p, in_thread = run_guest(InThreadExitPath, total_work=500_000)
        _p, hw_thread = run_guest(HwThreadExitPath, total_work=500_000)
        assert in_thread.slowdown() > 1.2 > hw_thread.slowdown()

    def test_exit_latency_recorded(self):
        _path, guest = run_guest(HwThreadExitPath)
        costs = CostModel()
        expected = (costs.hw_stop_cycles + 2 * costs.hw_start_rf_cycles
                    + 400)  # + default handler work
        assert guest.exit_recorder.pct(50) == expected

    def test_random_intervals_reproducible(self):
        results = []
        for _ in range(2):
            engine = Engine()
            rng = RngStreams(5).stream("g")
            guest = GuestVm(engine, InThreadExitPath(engine), 200_000,
                            5_000, rng=rng)
            engine.run()
            results.append(guest.wall_cycles())
        assert results[0] == results[1]

    def test_wall_cycles_requires_finish(self):
        engine = Engine()
        guest = GuestVm(engine, InThreadExitPath(engine), 10_000, 1_000)
        with pytest.raises(ConfigError):
            guest.wall_cycles()

    def test_rejects_bad_params(self):
        engine = Engine()
        with pytest.raises(ConfigError):
            GuestVm(engine, InThreadExitPath(engine), 0, 100)

    @pytest.mark.parametrize("work,interval,field", [
        (1000.5, 100, "total_work_cycles"),
        (True, 100, "total_work_cycles"),
        (10_000, 2.5, "exit_interval_cycles"),
        (10_000, False, "exit_interval_cycles"),
    ])
    def test_rejects_non_integer_params(self, work, interval, field):
        engine = Engine()
        with pytest.raises(ConfigError, match=field):
            GuestVm(engine, InThreadExitPath(engine), work, interval)


class TestSplitXQueueing:
    def test_shared_core_queues_under_contention(self):
        # two guests exiting simultaneously: second handler waits
        engine = Engine()
        path = SplitXExitPath(engine, CostModel())
        streams = RngStreams(1)
        guests = [GuestVm(engine, path, 100_000, 2_000,
                          handler_work_cycles=1_500, name=f"g{i}")
                  for i in range(4)]
        engine.run()
        solo_engine = Engine()
        solo_path = SplitXExitPath(solo_engine, CostModel())
        solo = GuestVm(solo_engine, solo_path, 100_000, 2_000,
                       handler_work_cycles=1_500)
        solo_engine.run()
        shared_mean = sum(g.slowdown() for g in guests) / 4
        assert shared_mean > solo.slowdown()

    def test_hv_core_busy_tracked(self):
        engine = Engine()
        path = SplitXExitPath(engine, CostModel())
        guest = GuestVm(engine, path, 50_000, 5_000,
                        handler_work_cycles=700)
        engine.run()
        assert path.hv_core_busy_cycles == path.exits * 700

    def test_rejects_bad_comm(self):
        with pytest.raises(ConfigError):
            SplitXExitPath(Engine(), comm_cycles=0)

    @pytest.mark.parametrize("comm", [2.5, 200.0, True])
    def test_rejects_non_integer_comm(self, comm):
        with pytest.raises(ConfigError, match="comm_cycles"):
            SplitXExitPath(Engine(), comm_cycles=comm)


class TestExitReasons:
    def test_all_reasons_usable(self):
        engine = Engine()
        path = InThreadExitPath(engine)

        def one_exit(reason):
            yield from path.exit(reason, 100)

        for reason in ExitReason:
            engine.spawn(one_exit(reason))
        engine.run()
        assert path.exits == len(ExitReason)
