"""The parallel evaluation runner must be invisible in the results."""

import pytest

from repro.errors import ConfigError
from repro.experiments import all_experiments
from repro.experiments.parallel import run_parallel
from repro.sim.engine import HeapEngine, WheelEngine


@pytest.fixture(scope="module")
def quick_runs():
    """Every quick experiment, run serially and by four workers. Made
    once: the engine has one store, so the result cannot depend on the
    case below that reads it."""
    serial = [experiment.run(quick=True)
              for experiment in all_experiments()]
    return serial, run_parallel(quick=True, workers=4)


# the ids name the two compat engine classes perfbench/ imports; both
# must build the store the experiments ran on
@pytest.mark.parametrize("queue_mode", ["heap", "wheel"])
def test_parallel_matches_serial_byte_for_byte(queue_mode, quick_runs):
    engine_cls = {"heap": HeapEngine, "wheel": WheelEngine}[queue_mode]
    assert type(engine_cls()) is HeapEngine
    serial, parallel = quick_runs
    assert [r.experiment_id for r in parallel] == \
        [r.experiment_id for r in serial]
    for fast, slow in zip(parallel, serial):
        assert fast.render_markdown() == slow.render_markdown()


def test_subset_and_order_preserved():
    results = run_parallel(["E04", "E02"], quick=True, workers=2)
    assert [r.experiment_id for r in results] == ["E04", "E02"]


def test_single_worker_runs_in_process():
    results = run_parallel(["E02"], quick=True, workers=1)
    assert results[0].experiment_id == "E02"


def test_invalid_worker_count():
    with pytest.raises(ConfigError):
        run_parallel(["E02"], quick=True, workers=0)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_parallel(["E99"], quick=True)
