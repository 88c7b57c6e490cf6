#!/usr/bin/env python
"""CI bench-smoke: quick engine + cluster benchmarks vs committed baselines.

Re-measures the cheap throughput numbers -- raw engine dispatch
(``BENCH_engine.json``) and the two cluster micro-runs
(``BENCH_cluster.json``) -- and fails if any events/sec figure
regresses more than ``TOLERANCE_PCT`` below its committed baseline.
Wall-clock entries are informational; only events/sec is gated, since
it is the one metric that tracks the engine hot path rather than the
container's mood. The engine-event counts of these cluster runs are
deterministic, so they are not gated here but pinned exactly by the
tier-1 test ``tests/test_cluster_event_counts.py``.

The instrumentation, request-tracing and coherence-hook A/Bs run fresh
and interleaved in this process; no committed number is read. Their
gated ``disabled`` figure is an A/A noise bound: the disabled pass runs
the same code as its reference, so the gate shows that the A/B resolves
``OVERHEAD_BUDGET_PCT`` on this host, which the ``enabled`` (opt-in)
figure printed beside it relies on. It is not a regression check on
the disabled guards: what they cost shows only against a build without
them.

Run:  PYTHONPATH=src python benchmarks/bench_smoke.py
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

TOLERANCE_PCT = 25.0

#: How far a disabled pass may read below its identical reference pass.
OVERHEAD_BUDGET_PCT = 3.0

#: Fresh A/Bs per overhead gate before it fails.
OVERHEAD_ATTEMPTS = 4


def check(label: str, baseline: int, measured: int, failures: list) -> None:
    drop = 100.0 * (1 - measured / baseline)
    status = "ok" if drop <= TOLERANCE_PCT else "REGRESSED"
    print(f"{label:42s} baseline {baseline:>10,}  "
          f"measured {measured:>10,}  drop {drop:6.1f}%  {status}")
    if drop > TOLERANCE_PCT:
        failures.append(label)


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


def main() -> int:
    from benchmarks import _cluster_bench as cb
    from benchmarks.bench_engine_throughput import bench_engine_dispatch
    import benchmarks.bench_e14_cluster as e14
    import benchmarks.bench_e15_backends as e15
    import benchmarks.bench_e16_spans as e16_spans

    engine_base = json.loads((ROOT / "BENCH_engine.json").read_text())
    cluster_base = json.loads(cb.OUTPUT.read_text())
    failures: list = []

    # best-of-3 to keep CI noise out of the comparison
    measured = max(bench_engine_dispatch()["events_per_sec"]
                   for _ in range(3))
    check("engine.dispatch", engine_base["engine"]["events_per_sec"],
          measured, failures)

    for section, module in (("e14", e14), ("e15", e15)):
        committed = cluster_base[section]["cluster_run"]
        fresh = module.micro_bench()
        check(f"{section}.cluster_run", committed["events_per_sec"],
              fresh["events_per_sec"], failures)

    # request tracing: untraced vs untraced noise bound, traced cost
    check_overhead("e16.tracing", e16_spans.tracing_ab, failures)

    # instrumentation: instrument=False vs itself, instrument=True cost
    from benchmarks.bench_engine_throughput import bench_instrumentation
    check_overhead("instrumentation", bench_instrumentation, failures)

    # watch-bus cancel churn: the O(1) per-line watcher sets, gated
    # against the committed baseline like any events/sec figure
    from benchmarks.bench_engine_throughput import (bench_watch_cancel,
                                                    coherence_ab)
    fresh_cancel = bench_watch_cancel(trials=5)
    check("watch.cancel_churn",
          engine_base["watch_cancel"]["cancels_per_sec"],
          fresh_cancel["cancels_per_sec"], failures)

    # coherence hook: coherence=None vs itself, directory model cost
    check_overhead("coherence", coherence_ab, failures)

    # PDES shard scaling (process transport, default store): the same
    # sweep cell at 1/2/4 shard workers, each gated independently
    scaling_base = cluster_base["e14"].get("shard_scaling", {})
    fresh_scaling = e14.shard_scaling(
        tuple(int(s) for s in scaling_base))
    for shards, cell in scaling_base.items():
        check(f"e14.shard_scaling[shards={shards}]",
              cell["events_per_sec"],
              fresh_scaling[shards]["events_per_sec"], failures)

    # decoded-dispatch throughput: fresh instr/sec per loop shape with
    # the decode cache on, gated against the committed baseline (a
    # regression here means the handler chains or fusion got slower)
    from benchmarks.bench_isa_dispatch import micro_bench as isa_dispatch
    fresh_isa = isa_dispatch(scale=2)
    for name, cell in engine_base["isa_dispatch"]["workloads"].items():
        check(f"isa_dispatch.{name}[predecode]",
              cell["predecode_instr_per_sec"],
              fresh_isa[name]["predecode_instr_per_sec"], failures)

    if failures:
        print(f"\nevents/sec regression >{TOLERANCE_PCT}% in: "
              + ", ".join(failures))
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
