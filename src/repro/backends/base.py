"""The server-backend protocol and its string-keyed registry.

A *backend* is one implementation of the request-in/latency-out server
contract the cluster layer programs against: submit a segmented request
now, call ``on_done`` when its last segment completes, account CPU
busy cycles. Two implementations ship:

- ``"model"`` -- the behavioral
  :class:`~repro.distributed.rpc.RpcServerModel` (queueing servers plus
  the per-transition cost model); cheap, scales to big sweeps;
- ``"isa"`` -- :class:`~repro.backends.machine.MachineBackend`, the
  full ISA-level :class:`~repro.machine.Machine` running
  thread-per-request assembly with monitor/mwait blocking on remote
  calls; expensive, but every overhead is *executed*, not modeled.

Both run on the caller's shared engine, so a cluster can mix fidelity
levels per node and experiment E15 can replay one workload (common
random numbers) against both and compare the tails -- the E02-style
two-layer agreement check, at cluster scale.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.arch.costs import CostModel
from repro.distributed.rpc import RpcServerModel, ServerDesign
from repro.errors import ConfigError
from repro.sim.engine import Engine


@runtime_checkable
class ServerBackend(Protocol):
    """What the cluster layer requires of a server implementation.

    Attributes: ``design`` (the :class:`ServerDesign` being served),
    ``completed`` (finished request count), and ``recorder`` (a
    :class:`~repro.analysis.stats.LatencyRecorder` of per-request
    latencies).
    """

    design: ServerDesign

    def submit(self, request_id: int, segment_cycles: List[float],
               rtt_cycles: int,
               on_done: Optional[Callable[[], None]] = None) -> None:
        """Accept a request now; ``on_done`` fires at its completion."""
        ...

    def cpu_busy_cycles(self) -> int:
        """Total CPU cycles consumed so far (utilization accounting)."""
        ...


BackendFactory = Callable[..., ServerBackend]


def _build_model(engine: Engine, design: ServerDesign,
                 costs: Optional[CostModel],
                 resident_threads: Optional[int],
                 coherence: Optional[str]) -> ServerBackend:
    if coherence is not None:
        raise ConfigError(
            "the 'model' backend has no machine to attach a coherence "
            "model to; use backend='isa' with coherence, or drop the "
            "coherence knob")
    return RpcServerModel(engine, design, costs,
                          resident_threads=resident_threads)


def _build_isa(engine: Engine, design: ServerDesign,
               costs: Optional[CostModel],
               resident_threads: Optional[int],
               coherence: Optional[str]) -> ServerBackend:
    from repro.backends.machine import MachineBackend
    return MachineBackend(engine, design, costs,
                          resident_threads=resident_threads,
                          coherence=coherence)


#: Backend name -> factory. Register new fidelity levels here.
BACKENDS: Dict[str, BackendFactory] = {
    "model": _build_model,
    "isa": _build_isa,
}


def backend_names() -> Sequence[str]:
    """The registered backend names, in reporting order."""
    return tuple(sorted(BACKENDS))


def create_backend(name: str, engine: Engine, design: ServerDesign, *,
                   costs: Optional[CostModel] = None,
                   resident_threads: Optional[int] = None,
                   coherence: Optional[str] = None) -> ServerBackend:
    """Build the named backend on ``engine``.

    ``coherence`` names a watch-bus coherence model for the backend's
    machine (ISA backend only; see
    :class:`~repro.coherence.directory.DirectoryModel`).

    Raises :class:`~repro.errors.ConfigError` on an unknown name, with
    the registered alternatives in the message.
    """
    factory = BACKENDS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown server backend {name!r}; known backends: "
            f"{', '.join(backend_names())} ('model' is the behavioral "
            f"RpcServerModel, 'isa' the full ISA-level machine)")
    return factory(engine, design, costs, resident_threads, coherence)
