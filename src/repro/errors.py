"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so
callers can catch simulator failures without masking genuine Python bugs
(``TypeError`` and friends always propagate).
"""

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro simulator."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in
    the past, or running a finished process)."""


class DeadlockError(SimulationError):
    """``run()`` was asked to advance but every process is blocked and no
    events are pending."""


class MemoryError_(ReproError):
    """Out-of-range or misaligned access to simulated memory.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class IsaError(ReproError):
    """Malformed instruction or assembler input."""


class GuestFault(ReproError):
    """An executing guest program performed an illegal operation.

    In the proposed hardware model these never unwind the simulator --
    they are converted into exception descriptors written to guest
    memory (see :mod:`repro.hw.exceptions`). The interpreter raises this
    internally and the core catches it at the instruction boundary.
    """

    def __init__(self, kind: str, detail: str = "", faulting_address: int = 0):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail
        self.faulting_address = faulting_address


class PermissionFault(GuestFault):
    """A ptid attempted a thread-management operation the TDT forbids."""

    def __init__(self, detail: str = ""):
        super().__init__("permission-fault", detail)


class TripleFault(ReproError):
    """An exception occurred in a ptid with no registered handler chain.

    The paper: "Triggering an exception in a thread without a handler for
    that exception type indicates a serious kernel bug akin to a
    triple-fault, and can be handled by halting or resetting the CPU."
    """


class ConfigError(ReproError):
    """Invalid machine, kernel, or experiment configuration."""


def require_int(name: str, value, least: Optional[int] = None) -> None:
    """Reject a bool, a non-integer or a value below ``least`` with a
    :class:`ConfigError` naming the argument."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)):
        bound = f" >= {least}" if least is not None else ""
        raise ConfigError(
            f"{name} must be an integer{bound}, got {value!r}")
