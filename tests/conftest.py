"""Fixtures shared across test modules."""

import pytest


@pytest.fixture(scope="session")
def quick_results():
    """Every experiment run once in quick mode, serially, by id.

    The one serial quick evaluation of the suite: tests that need the
    default results read them from here, and nothing may mutate them.
    """
    from repro.experiments import all_experiments

    return {e.experiment_id: e.run(quick=True) for e in all_experiments()}
