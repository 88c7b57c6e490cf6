"""E15 bench: the ISA-backend cluster micro-bench and the E15 wall clock.

``micro_bench`` is an entry point of the paired speed gates in
``bench_smoke.py``. Run as a script
(``PYTHONPATH=src python benchmarks/bench_e15_backends.py``) to record
it, with the E15 wall clock and the host, into the ``e15`` section of
``BENCH_cluster.json``: a record, which no gate reads. Pass ``--quick``
to skip the full-mode experiment timing.
"""

import sys

from repro.cluster import ClusterConfig, DESIGNS, run_cluster


def _run(backend, requests=60):
    config = ClusterConfig(nodes=2, design=DESIGNS["hw-threads"],
                           policy="round-robin", fanout=1, load=0.06,
                           mean_service_cycles=4_000, segments=2,
                           rtt_cycles=20_000, requests=requests,
                           backend=backend)
    return run_cluster(config, seed=7)


def micro_bench() -> dict:
    """The ISA-backend cluster run (every node a simulated machine):
    the path the busy-cycle fast-forward keeps viable."""
    from benchmarks._cluster_bench import timed_cluster_run

    return timed_cluster_run(lambda: _run("isa"))


def main(quick_only: bool) -> None:
    from benchmarks import _cluster_bench as cb

    payload = {
        "host": cb.host(),
        # pre-rework E15 full-mode wall-clock (naive per-cycle ISA
        # stepping on the machine-backend nodes)
        "pre_rework_full_seconds": 8.13,
        "cluster_run": micro_bench(),
        "experiment": (
            [cb.timed_experiment("E15", quick=True)] if quick_only else
            [cb.timed_experiment("E15", quick=True),
             cb.timed_experiment("E15", quick=False)]),
    }
    cb.update_section("e15", payload)


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__)
                           .resolve().parent.parent))
    main(quick_only="--quick" in sys.argv[1:])
