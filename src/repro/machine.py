"""Top-level machine assembly: the package's main entry point.

A :class:`Machine` wires together the event engine, clock, memory with
its watch bus, a :class:`~repro.hw.chip.Chip`, tracing, and RNG streams,
and offers the conveniences everything else (examples, experiments,
tests) builds on: allocate memory, assemble and load guest programs,
build TDTs, run the simulation.

    machine = build_machine(cores=1, hw_threads_per_core=64)
    ring = machine.alloc("rx-ring", 4096)
    machine.load_asm(ptid=0, source="...", symbols={"RING": ring.base})
    machine.boot(0)
    machine.run(until=100_000)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Optional

from repro.arch.costs import CostModel
from repro.errors import ConfigError
from repro.hw.chip import Chip
from repro.hw.core import HWCore
from repro.hw.ptid import HardwareThread
from repro.hw.tdt import Permission, ThreadDescriptorTable
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.mem.dma import DmaEngine
from repro.mem.memory import Memory, Region
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer


@dataclass
class MachineConfig:
    """Knobs for :func:`build_machine`. Defaults follow the paper."""

    cores: int = 1
    hw_threads_per_core: int = 64
    smt_width: int = 2
    freq_ghz: float = 3.0
    rf_bytes: int = 64 * 1024
    memory_bytes: int = 1 << 32
    strict_memory: bool = False
    security_model: str = "tdt"
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 0xC0FFEE
    trace: bool = False
    #: full observability (metrics registry, per-ptid timelines, cycle
    #: profiler). Also implied for machines built inside an active
    #: repro.obs session. Off, the issue loop skips every profiler call
    #: behind one None check; on or off, the simulation is the same.
    instrument: bool = False
    #: not fields, and not settable: every core batches busy cycles
    #: (HWCore._plan_fast_forward) and runs pre-decoded handler chains
    #: (repro.isa.decode). Kept readable, always True, for run
    #: manifests that still record them.
    fast_forward: ClassVar[bool] = True
    predecode: ClassVar[bool] = True
    #: watch-bus coherence model: None (flat free bus, the seed
    #: behavior) or "directory" (MSI directory priced by the
    #: CostModel's dir_* fields)
    coherence: Optional[str] = None

    def validate(self) -> None:
        for name in ("cores", "hw_threads_per_core", "smt_width",
                     "rf_bytes", "memory_bytes"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < 1):
                raise ConfigError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if self.coherence is not None:
            from repro.coherence.directory import MODEL_NAMES
            if self.coherence not in MODEL_NAMES:
                raise ConfigError(
                    f"unknown coherence model {self.coherence!r}; known "
                    f"models: {', '.join(MODEL_NAMES)}")


class Machine:
    """A complete simulated system implementing the proposal."""

    def __init__(self, config: MachineConfig,
                 engine: Optional[Engine] = None):
        config.validate()
        self.config = config
        # an injected engine puts this machine on a caller-shared
        # timeline -- how the cluster layer runs one ISA-level machine
        # per node inside a single simulation. Ownership matters to the
        # obs harvest: engine.* counters describe whatever engine hosts
        # the machine, so only an owned engine's totals are simulation
        # facts worth snapshotting (a shared host engine's event count
        # depends on what else runs on it, e.g. which PDES shard).
        self.owns_engine = engine is None
        self.engine = engine if engine is not None else Engine()
        self.clock = Clock(config.freq_ghz)
        self.tracer = Tracer(self.engine, enabled=config.trace)
        self.rngs = RngStreams(config.seed)
        self.memory = Memory(size_bytes=config.memory_bytes,
                             strict=config.strict_memory)
        self.chip = Chip(self.engine, self.memory, cores=config.cores,
                         num_ptids=config.hw_threads_per_core,
                         smt_width=config.smt_width, costs=config.costs,
                         security_model=config.security_model,
                         rf_bytes=config.rf_bytes,
                         tracer=self.tracer)
        self.dma = DmaEngine(self.engine, self.memory)
        # observability: instrument when asked to, or when built inside
        # an active obs session (how the CLI instruments experiments).
        # Attaching here -- before the engine ever runs -- is what lets
        # each core's issue loop find its profiler on first dispatch.
        import repro.obs as obs
        session = obs.active()
        self.obs: Optional[obs.MachineObs] = None
        if config.instrument or session is not None:
            registry = session.registry if session is not None \
                else obs.MetricsRegistry()
            self.obs = obs.MachineObs(registry)
            for core in self.chip.cores:
                core.attach_obs(self.obs)
            if session is not None:
                session.register_machine(self)
        # coherence: attach the directory model before anything arms a
        # watch, so its sharer sets mirror the bus from the first
        # monitor on. Registered with the ambient session where the
        # machine lives (a PDES shard worker ships it home per node).
        self.coherence = None
        if config.coherence is not None:
            from repro.coherence.directory import DirectoryModel
            self.coherence = DirectoryModel(config.costs, self.engine)
            self.memory.watch_bus.coherence = self.coherence
            if session is not None:
                session.register_source("coherence.directory",
                                        self.coherence._fill_metrics)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def costs(self) -> CostModel:
        return self.config.costs

    def core(self, core_id: int = 0) -> HWCore:
        return self.chip.core(core_id)

    def thread(self, ptid: int, core_id: int = 0) -> HardwareThread:
        return self.core(core_id).thread(ptid)

    def alloc(self, name: str, size_bytes: int) -> Region:
        return self.memory.alloc(name, size_bytes)

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_asm(self, ptid: int, source: str, core_id: int = 0,
                 symbols: Optional[Dict[str, int]] = None,
                 supervisor: Optional[bool] = None,
                 edp: Optional[int] = None, tdtr: Optional[int] = None,
                 name: Optional[str] = None) -> HardwareThread:
        """Assemble ``source`` and bind it to a ptid."""
        program = assemble(source, name=name or f"ptid{ptid}", symbols=symbols)
        return self.load_program(ptid, program, core_id=core_id,
                                 supervisor=supervisor, edp=edp, tdtr=tdtr)

    def load_program(self, ptid: int, program: Program, core_id: int = 0,
                     supervisor: Optional[bool] = None,
                     edp: Optional[int] = None,
                     tdtr: Optional[int] = None) -> HardwareThread:
        return self.core(core_id).load_program(
            ptid, program, supervisor=supervisor, edp=edp, tdtr=tdtr)

    def boot(self, ptid: int, core_id: int = 0) -> None:
        """Make a ptid runnable at time zero, free of charge."""
        self.core(core_id).boot(ptid)

    def build_tdt(self, name: str,
                  entries: Dict[int, "tuple[int, Permission]"],
                  capacity: int = 64) -> ThreadDescriptorTable:
        """Allocate and populate a memory-resident TDT.

        ``entries`` maps vtid -> (ptid, permissions).
        """
        from repro.hw.tdt import ENTRY_WORDS
        region = self.alloc(name, capacity * ENTRY_WORDS * 8)
        tdt = ThreadDescriptorTable(self.memory, region.base, capacity)
        for vtid, (ptid, perms) in entries.items():
            tdt.set_entry(vtid, ptid, perms)
        return tdt

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Advance the simulation; returns the time reached."""
        time = self.engine.run(until=until, max_events=max_events)
        return time

    def run_seconds(self, seconds: float) -> int:
        return self.run(until=self.engine.now
                        + int(seconds * self.clock.cycles_per_second()))

    def check(self) -> None:
        """Raise TripleFault if any core halted on an unhandled exception."""
        self.chip.check()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A structured snapshot of the whole machine's counters."""
        per_core = []
        for core in self.chip.cores:
            threads = core.threads
            per_core.append({
                "core_id": core.core_id,
                "instructions": core.instructions_retired,
                "issue_rounds": core.issue_rounds,
                "idle_cycles": core.idle_cycles,
                "halted": core.halted,
                "runnable": core.runnable_count(),
                "wakeups": sum(t.wakeups for t in threads),
                "starts": sum(t.starts for t in threads),
                "stops": sum(t.stops for t in threads),
                "exceptions": sum(t.exceptions_raised for t in threads),
                "storage": core.storage.occupancy(),
            })
        metrics = None
        if self.obs is not None:
            from repro.obs.snapshot import machine_snapshot
            metrics = machine_snapshot(self)
        return {
            "time": self.engine.now,
            "events": self.engine.events_processed,
            "cores": per_core,
            "memory": {
                "loads": self.memory.load_count,
                "stores": self.memory.store_count,
            },
            "watch_bus": {
                "notifications": self.memory.watch_bus.total_notifications,
                "triggers": self.memory.watch_bus.total_triggers,
            },
            "migrations": self.chip.migrations,
            "metrics": metrics,
        }

    def report(self) -> str:
        """The stats rendered as a printable table (debug aid)."""
        from repro.analysis.tables import Table

        snapshot = self.stats()
        table = Table(["core", "instructions", "issue rounds",
                       "idle cycles", "wakeups", "starts", "stops",
                       "exceptions"],
                      title=f"machine @ t={snapshot['time']}"
                            f" ({snapshot['events']} events)")
        for core in snapshot["cores"]:
            table.add_row(core["core_id"], core["instructions"],
                          core["issue_rounds"], core["idle_cycles"],
                          core["wakeups"], core["starts"], core["stops"],
                          core["exceptions"])
        rendered = table.render()
        if snapshot["metrics"] is not None:
            from repro.obs.profile import BUCKETS
            profile_table = Table(["core"] + list(BUCKETS) + ["total"],
                                  title="cycle attribution")
            for name, buckets in snapshot["metrics"]["profile"].items():
                profile_table.add_row(
                    name, *[buckets[b] for b in BUCKETS], buckets["total"])
            rendered += "\n" + profile_table.render()
        return rendered

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Machine cores={self.config.cores}"
                f" ptids/core={self.config.hw_threads_per_core}"
                f" t={self.engine.now}>")


def build_machine(cores: int = 1, hw_threads_per_core: int = 64,
                  engine: Optional[Engine] = None,
                  **overrides) -> Machine:
    """Build a machine with keyword overrides for any config field.

    ``engine`` (optional) shares a caller-owned event engine instead of
    creating a private one. An override that names no
    :class:`MachineConfig` field raises :class:`ConfigError`.
    """
    known = [f.name for f in fields(MachineConfig)]
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown machine config field(s) {', '.join(unknown)}; "
            f"known fields: {', '.join(known)}")
    config = MachineConfig(cores=cores,
                           hw_threads_per_core=hw_threads_per_core,
                           **overrides)
    return Machine(config, engine=engine)
