"""The pass/fail rule of the paired speed gates in
``benchmarks/bench_smoke.py``, fed synthetic per-round samples.

A gate compares the change with a reference tree on the same host: one
fresh run per side per round, the side that goes first alternating, and
a gate fails when its median change/reference ratio is below the floor
or when either side cannot run it.
"""

import pytest

from benchmarks import bench_smoke

GATES = {
    "engine.dispatch", "e14.cluster_run", "e15.cluster_run",
    "watch.cancel_churn", "e14.shard_scaling[shards=1]",
    "e14.shard_scaling[shards=2]", "e14.shard_scaling[shards=4]",
    "isa_dispatch.alu[predecode]", "isa_dispatch.branchy[predecode]",
    "isa_dispatch.memory[predecode]",
}


def rounds_of(entry, ratios, calls=None):
    """A ``measure`` whose change side reads ``ratios[i]`` times the
    reference in round ``i`` on every gate of ``entry``, and equals it
    on every other gate. ``calls`` collects the sides ``entry`` ran."""
    calls = [] if calls is None else calls

    def measure(measured_entry, side):
        gates = bench_smoke.ENTRY_POINTS[measured_entry][0]
        ratio = 1.0
        if measured_entry == entry:
            calls.append(side)
            ratio = ratios[(len(calls) - 1) // 2]
        return {gate: (100.0 * ratio if side == "change" else 100.0)
                for gate in gates}

    return measure


def check(measure):
    failures = []
    bench_smoke.check_paired(measure, failures)
    return failures


def test_the_ten_gates_keep_their_names():
    gates = [gate for gates, _code in bench_smoke.ENTRY_POINTS.values()
             for gate in gates]
    assert len(gates) == 10 and set(gates) == GATES


def test_seven_rounds_at_a_25_percent_bound():
    # at least five rounds; seven keep A/A runs on a shared two-vCPU
    # host from failing when three rounds of five hit contention
    assert bench_smoke.ROUNDS == 7
    assert bench_smoke.FLOOR == 0.75


def test_a_60_percent_ratio_in_every_round_fails():
    assert check(rounds_of("e14.cluster_run", [0.6] * 7)) \
        == ["e14.cluster_run"]


@pytest.mark.parametrize("ratios", [
    [0.95, 1.02, 0.98, 1.01, 0.97, 1.0, 0.99],
    # single rounds as far apart as a two-vCPU host's shard runs go
    [0.61, 1.41, 1.01, 1.21, 1.07, 0.59, 1.16],
    # three bad rounds of seven do not move the median below the floor
    [0.5, 0.6, 0.99, 1.0, 1.01, 0.4, 1.1],
])
def test_a_a_noise_passes(ratios):
    assert check(rounds_of("e14.shard_scaling", ratios)) == []


def test_four_slow_rounds_of_seven_fail():
    ratios = [1.0, 0.7, 0.7, 1.0, 0.7, 1.0, 0.7]
    assert check(rounds_of("engine.dispatch", ratios)) \
        == ["engine.dispatch"]


def test_every_round_alternates_the_side_that_goes_first():
    calls = []
    check(rounds_of("engine.dispatch", [1.0] * bench_smoke.ROUNDS, calls))
    assert calls == [side for index in range(bench_smoke.ROUNDS)
                     for side in (bench_smoke.SIDES if index % 2 == 0
                                  else bench_smoke.SIDES[::-1])]


@pytest.mark.parametrize("side", bench_smoke.SIDES)
def test_a_side_that_raises_fails_naming_the_gate(side, capsys):
    def measure(entry, measured_side):
        if entry == "e14.shard_scaling" and measured_side == side:
            raise RuntimeError(f"{side} side exited 1: ImportError")
        return {gate: 1.0 for gate in bench_smoke.ENTRY_POINTS[entry][0]}

    failures = check(measure)
    assert len(failures) == 1
    for shards in (1, 2, 4):
        assert f"e14.shard_scaling[shards={shards}]" in failures[0]
    assert f"{side} side exited 1" in capsys.readouterr().out


def test_a_side_that_measures_no_figure_for_a_gate_fails(capsys):
    def measure(entry, side):
        figures = {gate: 1.0 for gate in bench_smoke.ENTRY_POINTS[entry][0]}
        if entry == "engine.dispatch" and side == "reference":
            return {}
        return figures

    assert check(measure) == ["engine.dispatch (cannot run)"]
    assert "reference side measured no engine.dispatch" \
        in capsys.readouterr().out


def test_a_tree_without_the_simulator_cannot_run(tmp_path, capsys):
    failures = check(bench_smoke.tree_measure({"change": tmp_path,
                                               "reference": tmp_path}))
    assert "e15.cluster_run (cannot run)" in failures
    assert len(failures) == len(bench_smoke.ENTRY_POINTS)
    assert "change side exited 1" in capsys.readouterr().out
