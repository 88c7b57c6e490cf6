"""Parallel experiment runner: fan E01-E18 across worker processes.

Every experiment builds its own :class:`~repro.machine.Machine` (or raw
:class:`~repro.sim.engine.Engine`) from a fixed seed and shares no
state with the others, so running them in separate OS processes is
trivially deterministic: each worker produces exactly the result the
serial loop would have, and only wall-clock changes. Results come back
as pickled :class:`~repro.analysis.report.ExperimentResult` objects in
experiment-id order, so callers cannot tell (other than by the clock)
which runner produced them.

The unit of distribution is the whole experiment, so the slowest one
sets the wall clock: E14 alone is more than half of the full
evaluation's serial time. Sweep cells inside an experiment are also
independent, but splitting them would move the aggregation (tables,
claims) across process boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ExperimentResult
from repro.errors import ConfigError

#: One worker job: (experiment_id, quick, seed, instrument).
_Job = Tuple[str, bool, Optional[int], bool]


@dataclass
class InstrumentedRun:
    """What :func:`run_instrumented` returns: results in id order and
    one metrics snapshot per experiment."""

    results: List[ExperimentResult]
    snapshots: Dict[str, Dict[str, Any]]


def _run_one(job: _Job) -> Tuple[ExperimentResult,
                                 Optional[Dict[str, Any]]]:
    """Worker entry point: run one experiment by id (module level so it
    pickles under the spawn start method).

    With ``instrument`` set, the experiment runs inside a fresh obs
    session: every machine it builds instruments itself, and the worker
    sends back the session snapshot."""
    experiment_id, quick, seed, instrument = job
    from repro.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    kwargs = {"quick": quick} if seed is None else {"quick": quick,
                                                    "seed": seed}
    if not instrument:
        return experiment.run(**kwargs), None
    import repro.obs as obs

    with obs.session(experiment_id) as sess:
        result = experiment.run(**kwargs)
    return result, sess.snapshot()


def _execute(jobs: List[_Job], workers: int) -> List[Tuple]:
    if workers <= 1 or len(jobs) <= 1:
        return [_run_one(job) for job in jobs]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_run_one, jobs)


def _plan(experiment_ids: Optional[Sequence[str]],
          workers: Optional[int]) -> Tuple[List, int]:
    from repro.experiments import all_experiments, get_experiment

    if experiment_ids is None:
        experiments = all_experiments()
    else:
        experiments = [get_experiment(eid) for eid in experiment_ids]
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers is None:
        workers = os.cpu_count() or 1
    return experiments, min(workers, len(experiments))


def run_parallel(experiment_ids: Optional[Sequence[str]] = None,
                 quick: bool = False, workers: Optional[int] = None,
                 seed: Optional[int] = None) -> List[ExperimentResult]:
    """Run experiments across ``workers`` processes; results in id order.

    ``experiment_ids`` defaults to every registered experiment;
    ``workers`` defaults to the machine's CPU count (capped at the
    number of experiments). ``workers=1`` runs serially in-process,
    which is also the fallback when only one experiment is requested.
    """
    experiments, workers = _plan(experiment_ids, workers)
    jobs: List[_Job] = [(e.experiment_id, quick, seed, False)
                        for e in experiments]
    return [result for result, _snapshot in _execute(jobs, workers)]


def span_artifacts(results: Sequence[ExperimentResult]
                   ) -> Dict[str, List[Dict[str, Any]]]:
    """The span-tree exemplars published by traced experiments, keyed
    by experiment id (``repro evaluate --spans DIR`` dumps these).

    Experiments that trace requests (E16) retain their tail exemplar
    trees in ``result.data["span_exemplars"]`` -- a ``{design: [tree,
    ...]}`` map.  Because the trees ride inside the pickled result, a
    parallel run ships byte-identical spans to the serial loop's; the
    byte-identity test pins that.  A store-per-run design is deliberate:
    one ambient store across a whole experiment would collide the
    per-service request/attempt ids of its many cluster runs.
    """
    artifacts: Dict[str, List[Dict[str, Any]]] = {}
    for result in results:
        exemplars = result.data.get("span_exemplars")
        if not exemplars:
            continue
        trees: List[Dict[str, Any]] = []
        for design in sorted(exemplars):
            for tree in exemplars[design]:
                trees.append({"label": design, "tree": tree})
        artifacts[result.experiment_id] = trees
    return artifacts


def run_instrumented(experiment_ids: Optional[Sequence[str]] = None,
                     quick: bool = False, workers: Optional[int] = None,
                     seed: Optional[int] = None) -> InstrumentedRun:
    """Like :func:`run_parallel` but with full observability: each
    experiment runs in its own obs session (serial and parallel produce
    identical snapshots -- the session is per-experiment either way)."""
    experiments, workers = _plan(experiment_ids, workers)
    jobs: List[_Job] = [(e.experiment_id, quick, seed, True)
                        for e in experiments]
    run = InstrumentedRun(results=[], snapshots={})
    for job, (result, snapshot) in zip(jobs, _execute(jobs, workers)):
        run.results.append(result)
        run.snapshots[job[0]] = snapshot
    return run
