"""Tests for the three syscall paths."""

import pytest

from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.kernel import (
    FlexScPath,
    HwThreadSyscallPath,
    SyncSyscallPath,
    SyscallRunner,
)
from repro.sim.engine import Engine


def run_path(path_cls, iterations=50, user_work=500, kernel_work=300,
             **kwargs):
    engine = Engine()
    path = path_cls(engine, CostModel(), **kwargs)
    runner = SyscallRunner(engine, path, iterations,
                           user_work_cycles=user_work,
                           kernel_work_cycles=kernel_work)
    engine.run()
    return path, runner


class TestSyncSyscallPath:
    def test_per_call_latency_is_mode_switch_plus_work(self):
        costs = CostModel()
        path, runner = run_path(SyncSyscallPath)
        assert runner.recorder.pct(50) == costs.mode_switch_cycles + 300

    def test_fp_kernel_pays_fxsave(self):
        costs = CostModel()
        _path, plain = run_path(SyncSyscallPath)
        _path, fp = run_path(SyncSyscallPath, kernel_uses_fp=True)
        assert (fp.recorder.pct(50) - plain.recorder.pct(50)
                == costs.sw_switch_fp_extra_cycles)

    def test_overhead_hundreds_of_cycles(self):
        path = SyncSyscallPath(Engine(), CostModel())
        assert 100 <= path.overhead_cycles() <= 1000

    def test_call_count(self):
        path, _runner = run_path(SyncSyscallPath, iterations=17)
        assert path.calls == 17


class TestFlexScPath:
    def test_latency_includes_batch_delay(self):
        costs = CostModel()
        _path, runner = run_path(FlexScPath)
        # every call waits for the next 5000-cycle batch boundary
        assert runner.recorder.pct(50) > costs.mode_switch_cycles

    def test_batches_amortize(self):
        # many simultaneous callers share one batch
        engine = Engine()
        path = FlexScPath(engine, CostModel())
        results = []

        def caller():
            yield from path.call(100)
            results.append(engine.now)

        for _ in range(10):
            engine.spawn(caller())
        engine.run()
        assert len(results) == 10
        assert path.batches <= 2  # one (maybe two) batch visits

    def test_no_mode_switch_charged(self):
        _path, runner = run_path(FlexScPath, iterations=20)
        # latency never includes the 300-cycle mode switch; it is post +
        # batch wait + work, and the runner finished
        assert runner.finished_at is not None

    def test_engine_drains_after_runner_finishes(self):
        engine = Engine()
        path = FlexScPath(engine, CostModel())
        SyscallRunner(engine, path, 5)
        final = engine.run()
        assert engine.pending_events == 0
        assert final < 10_000_000

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            FlexScPath(Engine(), batch_window_cycles=0)


class TestHwThreadSyscallPath:
    def test_overhead_tens_of_cycles(self):
        path = HwThreadSyscallPath(Engine(), CostModel())
        assert path.overhead_cycles() < 50

    def test_beats_sync_on_latency(self):
        _p, sync_runner = run_path(SyncSyscallPath)
        _p, hw_runner = run_path(HwThreadSyscallPath)
        assert hw_runner.recorder.pct(50) < sync_runner.recorder.pct(50)

    def test_overhead_under_a_fifth_of_short_calls(self):
        _p, runner = run_path(HwThreadSyscallPath, iterations=200,
                              user_work=100, kernel_work=200)
        assert runner.recorder.count == 200
        assert runner.overhead_fraction() < 0.2

    def test_fp_kernel_is_free(self):
        _p, plain = run_path(HwThreadSyscallPath)
        _p, fp = run_path(HwThreadSyscallPath, kernel_uses_fp=True)
        assert fp.recorder.pct(50) == plain.recorder.pct(50)

    def test_tier_affects_overhead(self):
        rf = HwThreadSyscallPath(Engine(), CostModel(), tier="rf")
        l3 = HwThreadSyscallPath(Engine(), CostModel(), tier="l3")
        assert l3.overhead_cycles() > rf.overhead_cycles()

    def test_rejects_bad_tier(self):
        with pytest.raises(ConfigError):
            HwThreadSyscallPath(Engine(), tier="dram")


class TestSyscallRunner:
    def test_total_vs_useful_accounting(self):
        _path, runner = run_path(SyncSyscallPath, iterations=10)
        assert runner.total_cycles() > runner.useful_cycles()
        assert 0 < runner.overhead_fraction() < 1

    def test_unfinished_runner_rejects_totals(self):
        engine = Engine()
        runner = SyscallRunner(engine, SyncSyscallPath(engine), 5)
        with pytest.raises(ConfigError):
            runner.total_cycles()

    def test_rejects_zero_iterations(self):
        engine = Engine()
        with pytest.raises(ConfigError):
            SyscallRunner(engine, SyncSyscallPath(engine), 0)
