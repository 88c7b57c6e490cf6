"""Discrete-event simulation engine.

A deliberately small simpy-like kernel:

- :class:`~repro.sim.engine.Engine` -- the event loop; time is measured in
  integer CPU cycles.
- :class:`~repro.sim.process.Process` -- generator-based coroutines; a
  process yields :class:`Timeout`, :class:`Signal`, another ``Process``
  (join), or combinators (:class:`AnyOf` / :class:`AllOf`).
- :class:`~repro.sim.clock.Clock` -- cycle/nanosecond conversion at a
  configurable frequency.
- :class:`~repro.sim.trace.Tracer` -- structured event tracing.
- :class:`~repro.sim.rng.RngStreams` -- named deterministic random streams.

Everything in :mod:`repro.hw`, :mod:`repro.kernel`, and the experiment
harness runs on a single shared ``Engine`` so hardware device models and
behavioral kernel models stay mutually consistent in time.
"""

from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.process import AllOf, AnyOf, Process, Signal, Timeout
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Clock",
    "Engine",
    "Process",
    "Signal",
    "Timeout",
    "TraceEvent",
    "Tracer",
    "RngStreams",
]
