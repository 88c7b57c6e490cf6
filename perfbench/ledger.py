"""Per-layer host-time ledger, measured from outside the simulator.

While installed, the ledger wraps

- every callback handed to ``Engine.at``, ``after`` and ``at_step``
  (the ``HeapEngine``/``WheelEngine`` overrides and the step lane
  included), keyed by the callback's defining module -- a ``Process``
  resume is keyed by the module of its generator, so the ``HWCore``
  issue loop counts as ``hw.core``;
- ``Engine.run``, as the engine's own span;
- the public entry points of the layers (:data:`ENTRY_POINTS`), keyed
  by the module that defines them.

A span's self time is its duration minus its child spans. Layers are
the simulator's modules with the ``repro.`` prefix dropped; time in a
module that is no named layer is ``other``. Nothing in ``src/`` changes:
the wrappers are class attributes swapped in by :meth:`Ledger.installed`
and restored on exit.
"""

from __future__ import annotations

import collections
import functools
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.cluster.run as cluster_run
from repro.backends.machine import MachineBackend
from repro.cluster.balancer import LoadBalancer
from repro.cluster.fabric import Fabric
from repro.cluster.node import ClusterNode
from repro.cluster.service import ClusterService
from repro.distributed.rpc import RpcServerModel
from repro.isa.program import Program
from repro.kernel.sched import ProcessorSharingServer
from repro.mem.watch import WatchBus
from repro.obs.spans import SpanStore
from repro.sim.engine import Engine, HeapEngine, WheelEngine
from repro.sim.process import Process

#: The named layers, one per simulator module.
LAYERS = (
    "sim.engine", "sim.process", "kernel.sched", "distributed.rpc",
    "cluster.fabric", "cluster.balancer", "cluster.service",
    "cluster.node", "cluster.run", "backends.machine",
    "hw.core", "isa.decode", "mem.watch", "coherence.directory",
    "obs.spans",
)

OTHER = "other"

#: Public methods whose calls are spans of their defining module.
ENTRY_POINTS: Tuple[Tuple[type, str], ...] = (
    (LoadBalancer, "pick"),
    (Fabric, "send"),
    (Fabric, "send_traced"),
    (ClusterService, "submit"),
    (ClusterNode, "offer"),
    (RpcServerModel, "submit"),
    (ProcessorSharingServer, "offer"),
    (MachineBackend, "submit"),
    (WatchBus, "notify"),
) + tuple((SpanStore, name) for name, value in vars(SpanStore).items()
          if callable(value) and not name.startswith("_"))

#: Module-level functions spanned the same way.
ENTRY_FUNCTIONS: Tuple[Tuple[Any, str], ...] = (
    (cluster_run, "build_cluster"),
    (cluster_run, "drive_workload"),
    (cluster_run, "summarize_run"),
)

_PS_COMPLETE = ProcessorSharingServer._complete


def layer_of(module: str) -> str:
    """The layer a module's time belongs to."""
    name = module[len("repro."):] if module.startswith("repro.") else module
    return name if name in LAYERS else OTHER


class _Timed:
    """An engine callback wrapped in a span."""

    __slots__ = ("ledger", "module", "fn")

    def __init__(self, ledger: "Ledger", module: str, fn: Callable) -> None:
        self.ledger = ledger
        self.module = module
        self.fn = fn

    def __call__(self, *args: Any) -> Any:
        return self.ledger.span(self.module, self.fn, args, {})


class Ledger:
    """Spans and counts per module, accumulated while installed."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = collections.defaultdict(int)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        #: entry-point calls by ``Class.method``, plus ``scheduled``
        #: (callbacks handed to the engine), ``ps_arms`` (PS completion
        #: deadlines armed) and ``Program.decoded.miss``
        self.counts: Dict[str, int] = collections.Counter()
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def span(self, module: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        stack = self._stack
        stack.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self.self_ns[module] += elapsed - stack.pop()
            self.calls[module] += 1
            if stack:
                stack[-1] += elapsed

    @staticmethod
    def module_of(fn: Callable) -> str:
        """The module a callback's time belongs to."""
        owner = getattr(fn, "__self__", None)
        if type(owner) is Process:
            frame = owner.generator.gi_frame
            if frame is not None:
                return frame.f_globals.get("__name__", OTHER)
        target = getattr(fn, "__func__", fn)
        return (getattr(target, "__module__", None)
                or type(owner if owner is not None else target).__module__)

    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, Tuple[int, int]]:
        """``layer -> (calls, self ns)``, every named layer present."""
        out = {layer: [0, 0] for layer in LAYERS + (OTHER,)}
        for module, ns in self.self_ns.items():
            entry = out[layer_of(module)]
            entry[0] += self.calls[module]
            entry[1] += ns
        return {layer: (calls, ns) for layer, (calls, ns) in out.items()}

    def other_modules(self) -> Dict[str, int]:
        """Self ns per module that maps to no named layer."""
        return {m: ns for m, ns in self.self_ns.items()
                if layer_of(m) == OTHER}

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Swap the wrappers in for the extent of the block."""
        saved: List[Tuple[Any, str, Any, bool]] = []

        def swap(owner: Any, name: str, wrapper: Callable) -> None:
            own = name in vars(owner)
            saved.append((owner, name, vars(owner).get(name), own))
            setattr(owner, name, wrapper)

        for cls in (Engine, HeapEngine, WheelEngine):
            for name in ("at", "after", "at_step"):
                if name in vars(cls):
                    swap(cls, name, self._scheduler(vars(cls)[name]))
            if "run" in vars(cls) and cls is not Engine:
                swap(cls, "run", self._entry(vars(cls)["run"],
                                             "repro.sim.engine", None))
        for cls, name in ENTRY_POINTS:
            original = vars(cls)[name]
            swap(cls, name, self._entry(original, cls.__module__,
                                        f"{cls.__name__}.{name}"))
        swap(Program, "decoded", self._decoded(vars(Program)["decoded"]))
        for module, name in ENTRY_FUNCTIONS:
            original = getattr(module, name)
            swap(module, name, self._entry(original, original.__module__,
                                           name))
        try:
            yield self
        finally:
            for owner, name, original, own in reversed(saved):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)

    def _scheduler(self, original: Callable) -> Callable:
        counts = self.counts
        module_of = self.module_of

        @functools.wraps(original)
        def schedule(engine, time, fn, *args):
            # Engine.after delegates to at(): wrap each callback once
            if type(fn) is not _Timed:
                counts["scheduled"] += 1
                if getattr(fn, "__func__", None) is _PS_COMPLETE:
                    counts["ps_arms"] += 1
                fn = _Timed(self, module_of(fn), fn)
            return original(engine, time, fn, *args)
        return schedule

    def _entry(self, original: Callable, module: str, key) -> Callable:
        counts = self.counts
        span = self.span

        @functools.wraps(original)
        def entry(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            return span(module, original, args, kwargs)
        return entry

    def _decoded(self, original: Callable) -> Callable:
        counts = self.counts
        span = self.span

        @functools.wraps(original)
        def decoded(program, dispatch):
            counts["Program.decoded"] += 1
            if program._decoded_cache is None:
                counts["Program.decoded.miss"] += 1
            return span("repro.isa.decode", original, (program, dispatch),
                        {})
        return decoded
