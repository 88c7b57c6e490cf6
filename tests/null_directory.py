"""The zero-cost directory: the oracle the flat watch bus must match.

A :class:`~repro.coherence.directory.DirectoryModel` built from a
:class:`~repro.arch.costs.CostModel` whose ``dir_*`` fields are all
zero runs the whole protocol -- sharer sets, invalidations, forwards --
but charges nothing and delivers every forward in the writer's cycle.
A machine on it must be indistinguishable from one on the seed's flat
bus (``coherence=None``), which is what lets every result that predates
the directory survive it.

Use :func:`null_directory` for one bus, or run code inside
:func:`null_directory_everywhere` to put every machine it builds on
one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

from repro.arch.costs import CostModel
from repro.coherence.directory import DirectoryModel
from repro.machine import Machine

ZERO_COSTS = CostModel().scaled(
    dir_arm_cycles=0, dir_disarm_cycles=0, dir_inval_base_cycles=0,
    dir_inval_per_sharer_cycles=0, dir_forward_cycles=0)


def null_directory(engine=None) -> DirectoryModel:
    """A directory that prices every protocol event at zero cycles."""
    return DirectoryModel(ZERO_COSTS, engine)


@contextmanager
def null_directory_everywhere():
    """Attach a zero-cost directory to every machine built inside the
    block that has no coherence model of its own.

    Raises ``AssertionError`` if no watch was armed through one: the
    caller would then be comparing the flat bus with itself.
    """
    attached: List[DirectoryModel] = []
    build = Machine.__init__

    def build_on_null_directory(machine, config, engine=None):
        build(machine, config, engine)
        if machine.coherence is None:
            machine.coherence = null_directory(machine.engine)
            machine.memory.watch_bus.coherence = machine.coherence
            attached.append(machine.coherence)

    Machine.__init__ = build_on_null_directory
    try:
        yield attached
    finally:
        Machine.__init__ = build
    if not sum(model.arms for model in attached):
        raise AssertionError("no watch was armed on a zero-cost "
                             "directory inside the block")
