"""The benchmark's cluster workloads and their output checks.

Each workload is a fixed list of cluster configurations; one *iteration*
runs every configuration once, as a batch, with the workload seed. The
configurations are driven through the public API of
:mod:`repro.cluster.run` (``build_cluster``, ``drive_workload``,
``Engine.run``, ``summarize_run``).

Every cluster run is checked: its conservation audit must hold, and its
digest -- ``summarize_run`` output plus the latency quantiles -- must
equal the reference for that run. ``digests.json`` records the
references for the default and the held-out seed; re-record it after a
change that alters simulated results on purpose with::

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                           / "src"))

import repro.cluster.run as cluster_run
import repro.obs.spans as spans
from repro.cluster import DESIGNS, ClusterConfig, LinkSpec
from repro.kernel.sched import ProcessorSharingServer
from repro.sim.rng import RngStreams

DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"

#: The seed the experiments default to, and one kept out of tuning.
DEFAULT_SEED = 0xC0FFEE
HELD_OUT_SEED = 20211

# the E14 operating point
MEAN_SERVICE = 5_000
SEGMENTS = 4
RTT = 20_000
LOAD = 0.06
THREADS_PER_PEER = 4


def _e14(**overrides) -> ClusterConfig:
    fields = dict(load=LOAD, mean_service_cycles=MEAN_SERVICE,
                  segments=SEGMENTS, rtt_cycles=RTT,
                  threads_per_peer=THREADS_PER_PEER)
    fields.update(overrides)
    return ClusterConfig(**fields)


@dataclass(frozen=True)
class Workload:
    """A named batch of cluster runs (why each exists: README.md)."""

    name: str
    configs: Tuple[ClusterConfig, ...]
    #: run inside ``repro.obs.spans.tracing()``, as E16 does
    request_spans: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # E14: one sw-threads and one hw-threads run on common random numbers
    Workload("cluster_model", tuple(
        _e14(nodes=32, fanout=8, policy="jsq", design=DESIGNS[d],
             requests=200)
        for d in ("sw-threads", "hw-threads"))),
    # E14 section 4 traced as E16 traces it
    Workload("cluster_hedged", (
        _e14(nodes=16, fanout=8, policy="round-robin",
             design=DESIGNS["hw-threads"], requests=400,
             link=LinkSpec(drop_prob=0.01), hedge_after=8 * RTT),),
        request_spans=True),
    Workload("cluster_isa", tuple(
        _e14(nodes=4, fanout=2, policy="random", backend="isa",
             design=DESIGNS[d], coherence=coherence, requests=40)
        for d, coherence in (("hw-threads", "off"), ("sw-threads", "off"),
                             ("event-loop", "off"),
                             ("hw-threads", "directory")))),
)}


@dataclass
class RunOutcome:
    """What one cluster run produced, reduced to what the benchmark
    checks and counts."""

    digest: str
    conserved: bool
    completed: int
    events: int              # dispatched by the run's (coordinator) engine
    instructions: int        # retired by the node machines (isa backend)
    ps_completions: int      # jobs finished by PS servers (model backend)


def digest(summary: Dict[str, object], recorder) -> str:
    """Hash of a run's ``summarize_run`` output plus its latency
    quantiles -- equal digests mean identical simulated results."""
    quantiles = (recorder.summary().as_dict() if recorder.count else None)
    payload = json.dumps({"summary": summary, "latency": quantiles},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def run_one(config: ClusterConfig, seed: int) -> RunOutcome:
    """One cluster run to its horizon."""
    streams = RngStreams(seed)
    service = cluster_run.build_cluster(config, streams)
    cluster_run.drive_workload(service, config, streams)
    service.engine.run(until=config.horizon())
    summary = cluster_run.summarize_run(service)
    machines = [node.server.machine for node in service.nodes
                if config.backend == "isa"]
    servers = [getattr(node.server, "cpu", None) for node in service.nodes]
    return RunOutcome(
        digest=digest(summary, service.recorder),
        conserved=bool(service.conservation()["ok"]),
        completed=service.completed,
        events=service.engine.events_processed,
        instructions=sum(m.core(0).instructions_retired for m in machines),
        ps_completions=sum(s.completed for s in servers
                           if isinstance(s, ProcessorSharingServer)))


def run_iteration(workload: Workload, seed: int,
                  configs: Optional[Sequence[ClusterConfig]] = None
                  ) -> List[RunOutcome]:
    """Every configuration of ``workload`` once (or ``configs`` in its
    place), in order, all with ``seed``."""
    outcomes = []
    for config in configs if configs is not None else workload.configs:
        tracing = (spans.tracing(top_k=8) if workload.request_spans
                   else nullcontext())
        with tracing as store:
            outcomes.append(run_one(config, seed))
        if store is not None:
            store.finalize()
    return outcomes


def failures(outcomes: Sequence[RunOutcome],
             expected: Optional[Sequence[str]]) -> int:
    """Runs whose conservation audit fails or whose digest differs from
    ``expected`` (when a reference is known)."""
    bad = 0
    for index, outcome in enumerate(outcomes):
        if not outcome.conserved or (
                expected is not None and outcome.digest != expected[index]):
            bad += 1
    return bad


def recorded_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The reference digests recorded for ``workload`` at ``seed``."""
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed))


def record() -> None:
    """Rewrite ``digests.json`` from fresh runs at the recorded seeds."""
    table: Dict[str, Dict[str, List[str]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            outcomes = run_iteration(workload, seed)
            if failures(outcomes, None):
                raise SystemExit(f"{name} at seed {seed} failed its "
                                 f"conservation audit; nothing recorded")
            table.setdefault(name, {})[str(seed)] = [o.digest
                                                     for o in outcomes]
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    record()
