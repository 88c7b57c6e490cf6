#!/usr/bin/env python
"""CI bench-smoke: the change's speed against its base tree, on one host.

A figure read on one host does not compare with one recorded on another,
and a shared host spreads wider from run to run than a useful bound. So
each throughput gate pairs the change with a reference tree, the base
exported with ``git archive``, on the same host. Each of ``ROUNDS``
rounds runs every entry point once per side, in a fresh interpreter
whose ``cwd`` and ``PYTHONPATH`` are that side's tree root and ``src/``,
the side that goes first alternating. A gate fails when the median of
its per-round change/reference ratios is below ``FLOOR`` (more than 25%
slower), or when either side cannot run it. Nothing here reads the
``BENCH_*.json`` records; exact engine event counts are tier-1 tests.

The instrumentation, request-tracing and coherence-hook A/Bs run fresh
in this process, in the change's tree alone. Each gates an A/A noise
bound: its ``disabled`` pass runs the same code as its reference, so the
gate shows the A/B resolves ``OVERHEAD_BUDGET_PCT`` here, which the
``enabled`` figure printed beside it relies on. It is not a regression
check on the disabled guards.

Run:  mkdir ../base && git archive BASE | tar -x -C ../base
      PYTHONPATH=src python benchmarks/bench_smoke.py --reference ../base
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Paired rounds; each runs every entry point once per side.
ROUNDS = 7

#: Lowest median change/reference throughput ratio a gate passes at.
FLOOR = 0.75

#: How far a disabled pass may read below its identical reference pass.
OVERHEAD_BUDGET_PCT = 3.0

#: Fresh A/Bs per overhead gate before it fails.
OVERHEAD_ATTEMPTS = 4

SIDES = ("change", "reference")

#: entry point -> (its gates, the code a fresh interpreter runs in each
#: tree, using only names both trees define). The code leaves ``figures``,
#: gate -> throughput (higher is faster), each the best of several calls
#: as the timed runs last milliseconds. ``isa_dispatch`` times the
#: decoded side only.
ENTRY_POINTS = {
    "engine.dispatch": (("engine.dispatch",), """
from benchmarks.bench_engine_throughput import bench_engine_dispatch
figures = {"engine.dispatch": max(bench_engine_dispatch()["events_per_sec"]
                                  for _ in range(5))}
"""),
    "e14.cluster_run": (("e14.cluster_run",), """
from benchmarks.bench_e14_cluster import micro_bench
figures = {"e14.cluster_run": max(micro_bench()["events_per_sec"]
                                  for _ in range(5))}
"""),
    "e15.cluster_run": (("e15.cluster_run",), """
from benchmarks.bench_e15_backends import micro_bench
figures = {"e15.cluster_run": max(micro_bench()["events_per_sec"]
                                  for _ in range(5))}
"""),
    "watch.cancel_churn": (("watch.cancel_churn",), """
from benchmarks.bench_engine_throughput import bench_watch_cancel
figures = {"watch.cancel_churn":
           bench_watch_cancel(trials=5)["cancels_per_sec"]}
"""),
    "e14.shard_scaling": (
        tuple(f"e14.shard_scaling[shards={s}]" for s in (1, 2, 4)), """
from benchmarks.bench_e14_cluster import shard_scaling
runs = [shard_scaling((1, 2, 4)) for _ in range(2)]
figures = {f"e14.shard_scaling[shards={shards}]":
           max(run[shards]["events_per_sec"] for run in runs)
           for shards in runs[0]}
"""),
    "isa_dispatch": (
        tuple(f"isa_dispatch.{name}[predecode]"
              for name in ("alu", "branchy", "memory")), """
from benchmarks.bench_isa_dispatch import WORKLOADS, _run_once
figures = {}
for name, (source, iters) in WORKLOADS.items():
    _run_once(source, iters // 2, False)  # warm caches before measuring
    figures[f"isa_dispatch.{name}[predecode]"] = max(
        _run_once(source, iters // 2, False) for _ in range(5))
"""),
}

#: What a fresh interpreter runs: an entry point's code, then one JSON
#: line naming the ``repro`` it imported and the figures it measured.
CHILD = """
import json
import repro
{code}
print(json.dumps({{"origin": repro.__file__, "figures": figures}}))
"""


def tree_measure(trees: dict):
    """``measure(entry, side)``: one run of the entry point in a fresh
    interpreter in ``trees[side]``; a ``RuntimeError`` names the side if
    it fails or imports ``repro`` from outside that tree's ``src/``."""

    def measure(entry: str, side: str) -> dict:
        tree = trees[side]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src"), str(tree)]))
        code = CHILD.format(code=ENTRY_POINTS[entry][1])
        done = subprocess.run([sys.executable, "-c", code], cwd=tree,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:]
            raise RuntimeError(f"{side} side exited {done.returncode}: "
                               f"{' '.join(tail)}")
        reply = json.loads(done.stdout.splitlines()[-1])
        origin = pathlib.Path(reply["origin"]).resolve()
        if not origin.is_relative_to((tree / "src").resolve()):
            raise RuntimeError(f"{side} side imported repro from {origin}, "
                               f"not from {tree / 'src'}")
        return reply["figures"]

    return measure


def check_paired(measure, failures: list) -> None:
    """Gate every entry point's figures on paired rounds. Each round runs
    every entry point once per side, so a gate's rounds spread over the
    whole run, and the side that goes first alternates."""
    samples = {gate: [] for gates, _code in ENTRY_POINTS.values()
               for gate in gates}
    broken = {}
    for index in range(ROUNDS):
        print(f"round {index + 1} of {ROUNDS}", flush=True)
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for entry, (gates, _code) in ENTRY_POINTS.items():
            if entry in broken:
                continue
            try:
                figures = {side: measure(entry, side) for side in order}
                for side in order:
                    missing = [g for g in gates if g not in figures[side]]
                    if missing:
                        raise RuntimeError(
                            f"{side} side measured no {', '.join(missing)}")
            except RuntimeError as err:
                broken[entry] = err
                continue
            for gate in gates:
                samples[gate].append((figures["change"][gate],
                                      figures["reference"][gate]))
    for entry, (gates, _code) in ENTRY_POINTS.items():
        if entry in broken:
            print(f"{', '.join(gates)}: cannot run: {broken[entry]}")
            failures.append(f"{', '.join(gates)} (cannot run)")
            continue
        for gate in gates:
            changes, references = zip(*samples[gate])
            ratios = [c / r for c, r in samples[gate]]
            median = statistics.median(ratios)
            ok = median >= FLOOR
            print(f"{gate:42s} change {statistics.median(changes):>11,.0f}"
                  f"  reference {statistics.median(references):>11,.0f}"
                  f"  ratio {median:5.2f}"
                  f" ({min(ratios):.2f}-{max(ratios):.2f})"
                  f"  {'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(gate)


def check_overhead(label: str, measure, failures: list) -> None:
    """Gate a fresh interleaved A/A noise bound: the ``disabled`` pass
    runs the same code as its reference, so the gap between them is
    measurement noise, and it must stay within the budget for the
    ``enabled`` figure beside it to be readable. A hook doing work
    outside its disabled guard slows both passes alike and does not
    show here. One attempt's wall-clock wobble on a shared container
    can exceed the budget, so the gate passes on the first of
    ``OVERHEAD_ATTEMPTS`` A/Bs that stays within it."""
    for attempt in range(OVERHEAD_ATTEMPTS):
        ab = measure()
        if ab["disabled_overhead_pct"] <= OVERHEAD_BUDGET_PCT:
            break
    ok = ab["disabled_overhead_pct"] <= OVERHEAD_BUDGET_PCT
    print(f"{label + '[disabled]':42s} overhead "
          f"{ab['disabled_overhead_pct']:6.2f}%  budget "
          f"{OVERHEAD_BUDGET_PCT:6.2f}%  (attempt {attempt + 1})  "
          f"{'ok' if ok else 'TOO NOISY'}")
    print(f"{label + '[enabled]':42s} overhead "
          f"{ab['enabled_overhead_pct']:6.2f}%  (informational)")
    if not ok:
        failures.append(f"{label}[disabled]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", required=True, metavar="DIR",
                        type=pathlib.Path,
                        help="the base tree, exported with git archive")
    args = parser.parse_args(argv)
    from benchmarks.bench_e16_spans import tracing_ab
    from benchmarks.bench_engine_throughput import (bench_instrumentation,
                                                    coherence_ab)

    failures: list = []
    measure = tree_measure({"change": ROOT,
                            "reference": args.reference.resolve()})
    print(f"{ROUNDS} paired rounds against {args.reference}; a gate "
          f"fails below a median change/reference ratio of {FLOOR}")
    check_paired(measure, failures)

    # request tracing: untraced vs untraced noise bound, traced cost
    check_overhead("e16.tracing", tracing_ab, failures)
    # instrumentation: instrument=False vs itself, instrument=True cost
    check_overhead("instrumentation", bench_instrumentation, failures)
    # coherence hook: coherence=None vs itself, directory model cost
    check_overhead("coherence", coherence_ab, failures)

    if failures:
        print("\nfailed: " + ", ".join(failures))
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
