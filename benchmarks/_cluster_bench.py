"""Shared plumbing for the cluster benchmark scripts.

``bench_e14_cluster.py`` and ``bench_e15_backends.py`` both double as
standalone scripts that record wall-clock and events/sec numbers, with
the host that measured them, into ``BENCH_cluster.json`` at the repo
root. The committed file is a record: no gate reads it, and the CI
bench-smoke job times the same entry points against the base tree.
"""

import json
import os
import pathlib
import platform
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_cluster.json"


def timed_cluster_run(run_fn, repeats: int = 3) -> dict:
    """Best-of-N wall-clock of one ``run_cluster`` workload, with the
    dispatched-event count turned into events/sec. Sharded runs count
    every engine: coordinator plus the shard workers' events
    (``result.pdes['worker_events']``)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_fn()
        elapsed = time.perf_counter() - start
        events = (result.engine.events_processed
                  + result.pdes.get("worker_events", 0))
        if best is None or elapsed < best[0]:
            best = (elapsed, events)
    seconds, events = best
    return {
        "seconds": round(seconds, 4),
        "events": events,
        "events_per_sec": round(events / seconds),
    }


def timed_experiment(experiment_id: str, quick: bool) -> dict:
    from repro.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    start = time.perf_counter()
    experiment.run(quick=quick)
    return {"quick": quick,
            "seconds": round(time.perf_counter() - start, 2)}


def host() -> dict:
    """The machine a section was measured on."""
    cpu = platform.processor()
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"node": platform.node(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def update_section(section: str, payload: dict) -> None:
    """Read-merge-write one experiment's section of BENCH_cluster.json
    so the two scripts can be run in either order."""
    data = {}
    if OUTPUT.exists():
        data = json.loads(OUTPUT.read_text())
    data[section] = payload
    OUTPUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps({section: payload}, indent=2))
    print(f"\nwrote {OUTPUT}")
