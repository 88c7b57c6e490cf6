"""Lazy package re-exports: a PEP 562 module ``__getattr__``.

A package whose re-exports would pull in a heavy layer (the ISA
machine, the PDES runtime) names them here instead of importing them,
so a run that never touches that layer never loads it.
"""

from importlib import import_module
from typing import Any, Callable, Dict, Iterable


def lazy_exports(namespace: Dict[str, Any],
                 **submodules: Iterable[str]) -> Callable[[str], Any]:
    """The module-level ``__getattr__`` for the package whose globals
    are ``namespace``; ``submodules`` maps a submodule's name to the
    names the package re-exports from it.

    The first access of such a name imports its submodule and caches
    the value in ``namespace``, so every later access is a plain dict
    hit. Any other name raises :class:`AttributeError`.
    """
    package = namespace["__name__"]
    owners = {name: f"{package}.{submodule}"
              for submodule, names in submodules.items() for name in names}

    def __getattr__(name: str) -> Any:
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owner), name)
        return value

    return __getattr__
