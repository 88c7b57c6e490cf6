"""E14 bench: cluster-run micro-benchmarks and the E14 wall clock.

``micro_bench`` and ``shard_scaling`` are entry points of the paired
speed gates in ``bench_smoke.py``. Run as a script
(``PYTHONPATH=src python benchmarks/bench_e14_cluster.py``) to record
them, with the E14 wall clock and the host, into the ``e14`` section of
``BENCH_cluster.json``: a record, which no gate reads. Pass ``--quick``
to skip the full-mode experiment timing.
"""

import sys

from repro.cluster import ClusterConfig, DESIGNS, run_cluster


def _run(design, nodes=8, fanout=4):
    config = ClusterConfig(nodes=nodes, design=DESIGNS[design],
                           policy="random", fanout=fanout, load=0.1,
                           mean_service_cycles=5_000, segments=4,
                           rtt_cycles=20_000, requests=200)
    return run_cluster(config, seed=7)


def micro_bench() -> dict:
    """The representative cluster run: the sw-threads design (the
    PS-heaviest path) at moderate scale."""
    from benchmarks._cluster_bench import timed_cluster_run

    return timed_cluster_run(lambda: _run("sw-threads", nodes=8, fanout=4))


SHARD_COUNTS = (1, 2, 4)


def _shard_run(shards, nodes=16, requests=300):
    config = ClusterConfig(nodes=nodes, design=DESIGNS["sw-threads"],
                           policy="round-robin", fanout=8, load=0.1,
                           mean_service_cycles=5_000, segments=4,
                           rtt_cycles=20_000, requests=requests,
                           shards=shards)
    return run_cluster(config, seed=7, transport="process")


def shard_scaling(shard_counts=SHARD_COUNTS) -> dict:
    """Events/sec per shard count on one sweep cell (real worker
    processes; shards=1 is the classic single-engine run). On a host
    with fewer cores than shards plus the coordinator, the worker
    processes add synchronization without adding cores, so sharded
    throughput trails shards=1 there."""
    from benchmarks._cluster_bench import timed_cluster_run

    return {str(shards): timed_cluster_run(
                lambda shards=shards: _shard_run(shards))
            for shards in shard_counts}


def sweep_256(shard_counts=(1, 4)) -> dict:
    """The acceptance sweep: one 256-node cell, single-engine vs 4
    shard workers, wall-clock seconds (best of 2)."""
    from benchmarks._cluster_bench import timed_cluster_run

    return {str(shards): timed_cluster_run(
                lambda shards=shards: _shard_run(shards, nodes=256,
                                                 requests=300),
                repeats=2)
            for shards in shard_counts}


def main(quick_only: bool) -> None:
    from benchmarks import _cluster_bench as cb

    payload = {
        "host": cb.host(),
        # E14 full-mode wall-clock before the lazy-deadline PS
        # completions and the callback-chain RPC handling
        "pre_rework_full_seconds": 62.07,
        "cluster_run": micro_bench(),
        "experiment": (
            [cb.timed_experiment("E14", quick=True)] if quick_only else
            [cb.timed_experiment("E14", quick=True),
             cb.timed_experiment("E14", quick=False)]),
        # conservative-PDES sharding (process transport); byte-identical
        # output, so this is purely a wall-clock/events-per-sec trajectory
        "shard_scaling": shard_scaling(),
    }
    if not quick_only:
        payload["sweep_256_nodes"] = sweep_256()
    cb.update_section("e14", payload)


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__)
                           .resolve().parent.parent))
    main(quick_only="--quick" in sys.argv[1:])
