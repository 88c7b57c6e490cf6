"""Pluggable server backends: one protocol, several fidelity levels.

See :mod:`repro.backends.base` for the :class:`ServerBackend` protocol
and the registry, :mod:`repro.backends.machine` for the ISA-level
implementation. The behavioral implementation lives where it always
did, in :mod:`repro.distributed.rpc`, and is registered as ``"model"``.
:class:`MachineBackend` imports the ISA machine on first use, so a
``"model"`` run never loads it.
"""

from repro._lazy import lazy_exports
from repro.backends.base import (
    BACKENDS,
    ServerBackend,
    backend_names,
    create_backend,
)

__getattr__ = lazy_exports(globals(), machine=("MachineBackend",))

__all__ = [
    "BACKENDS",
    "ServerBackend",
    "MachineBackend",
    "backend_names",
    "create_backend",
]
