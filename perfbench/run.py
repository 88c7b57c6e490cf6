"""Host-time benchmark of the cluster simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_model --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and ledger-traced iterations and
reports the per-layer metrics. Human-readable lines (the run manifest,
every metric with its unit) come first; the last line of standard
output is the JSON result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Simulator mode switches; a run under any of them is refused so a
#: stray setting cannot become a baseline.
SWITCHES = ("REPRO_ENGINE_QUEUE", "REPRO_NO_PREDECODE",
            "REPRO_NO_FASTFORWARD", "REPRO_COHERENCE")

#: Fresh interpreters started per run to time set-up (median reported).
SETUP_PROBES = 7

#: Fewest timed iterations a run reports a rate from.
MIN_ITERATIONS = 3


def best(rates: Sequence[float]) -> float:
    """Best of N: the fastest iteration's rate. Every iteration does
    the same deterministic work and other tenants of a shared host only
    ever slow one down, so the fastest is the least disturbed; on a
    noisy 2-CPU host it spread less across runs than the median or the
    upper quartile did."""
    return max(rates)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Hash of every simulator source file: names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def manifest(workload, seed: int) -> Dict[str, object]:
    from repro.machine import MachineConfig
    from repro.sim.engine import resolve_queue

    config = workload.configs[0]
    return {
        "workload": workload.name,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "engine_queue": resolve_queue(),
        "predecode": MachineConfig().predecode,
        "fast_forward": MachineConfig().fast_forward,
        "backend": config.backend,
        "coherence": sorted({c.coherence for c in workload.configs}),
        "shards": config.shards,
        "runs_per_iteration": len(workload.configs),
        "requests_per_run": config.requests,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time from process start
    to the first ``Engine.run``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return statistics.median(samples)


class Bench:
    """One workload at one seed: checked iterations, timed or traced."""

    def __init__(self, workload, seed: int) -> None:
        import workloads as wl
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.expected = wl.recorded_digests(workload.name, seed)

    def iterate(self, seed: Optional[int] = None, expected=None,
                configs=None):
        """One checked iteration; returns (outcomes, host seconds)."""
        # collect the previous iteration's garbage outside the timed
        # region, so no iteration pays for another's cycles
        gc.collect()
        start = time.perf_counter()
        outcomes = self.wl.run_iteration(
            self.workload, self.seed if seed is None else seed, configs)
        elapsed = time.perf_counter() - start
        if seed is None:
            if self.expected is None:
                # no recorded reference at this seed: later iterations
                # must reproduce the first one
                self.expected = [o.digest for o in outcomes]
            expected = self.expected
        self.attempted += len(outcomes)
        self.failed += self.wl.failures(outcomes, expected)
        return outcomes, elapsed

    def prepare(self) -> None:
        """Untimed: the warm-up iteration at the default seed, checked
        against its recorded digests."""
        wl = self.wl
        self.iterate(wl.DEFAULT_SEED,
                     wl.recorded_digests(self.workload.name,
                                         wl.DEFAULT_SEED))

    def timed(self, seconds: float) -> Dict[str, List[float]]:
        """Uninstrumented iterations for ``seconds``."""
        rates: Dict[str, List[float]] = {"req": [], "instr": [], "s": []}
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               or len(rates["s"]) < MIN_ITERATIONS):
            outcomes, elapsed = self.iterate()
            self._note(rates, outcomes, elapsed)
        return rates

    def traced(self, seconds: float):
        """Alternate untraced and traced iterations for ``seconds``."""
        from ledger import Ledger
        ledger = Ledger()
        plain: Dict[str, List[float]] = {"req": [], "instr": [], "s": []}
        traced: Dict[str, List[float]] = {"req": [], "instr": [], "s": []}
        totals: Dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               or len(traced["s"]) < MIN_ITERATIONS):
            outcomes, elapsed = self.iterate()
            self._note(plain, outcomes, elapsed)
            with ledger.installed():
                outcomes, elapsed = self.iterate()
            self._note(traced, outcomes, elapsed)
            for outcome in outcomes:
                for key in ("completed", "events", "instructions",
                            "ps_completions"):
                    totals[key] = totals.get(key, 0) + getattr(outcome, key)
        return ledger, plain, traced, totals

    @staticmethod
    def _note(rates, outcomes, elapsed: float) -> None:
        rates["s"].append(elapsed)
        rates["req"].append(sum(o.completed for o in outcomes) / elapsed)
        rates["instr"].append(sum(o.instructions for o in outcomes)
                              / elapsed)


def per_layer(ledger, plain, traced, totals) -> Dict[str, tuple]:
    """The per-layer metrics: ``name -> (value, unit)``. Counts are per
    iteration; shares are of the traced iterations' host time."""
    from ledger import LAYERS, OTHER
    iterations = len(traced["s"])
    host_ns = sum(traced["s"]) * 1e9
    layers = ledger.layers()
    counts = ledger.counts
    completed = totals["completed"] or 1
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        calls, ns = layers[layer]
        out[f"{layer}.calls"] = (calls / iterations, "count")
        out[f"{layer}.self_frac"] = (ns / host_ns, "fraction")
    engine_ns = layers["sim.engine"][1]
    rpc_calls = layers["distributed.rpc"][0]
    hooks = sum(n for key, n in counts.items()
                if key.startswith("SpanStore."))
    out.update({
        "sim.engine.events_per_req": (totals["events"] / completed, "count"),
        "sim.engine.scheduled_per_req": (counts["scheduled"] / completed,
                                         "count"),
        "sim.engine.ns_per_event": (engine_ns / max(totals["events"], 1),
                                    "ns"),
        "kernel.sched.arms_per_completion": (
            counts["ps_arms"] / totals["ps_completions"]
            if totals["ps_completions"] else 0.0, "ratio"),
        "cluster.balancer.ns_per_pick": (
            layers["cluster.balancer"][1]
            / max(counts["LoadBalancer.pick"], 1), "ns"),
        "cluster.fabric.sends_per_req": (
            counts["Fabric.send_traced"] / completed, "count"),
        "distributed.rpc.callbacks_per_req": (
            (rpc_calls - counts["RpcServerModel.submit"]) / completed,
            "count"),
        "hw.core.instr_per_s": (best(plain["instr"]), "1/s"),
        "isa.decode.programs": (counts["Program.decoded.miss"] / iterations,
                                "count"),
        "mem.watch.notifies": (counts["WatchBus.notify"] / iterations,
                               "count"),
        "obs.spans.hooks_per_req": (hooks / completed, "count"),
    })
    named_ns = sum(ns for layer, (_, ns) in layers.items() if layer != OTHER)
    out["trace.other_frac"] = ((host_ns - named_ns) / host_ns, "ratio")
    out["trace.overhead_frac"] = (min(traced["s"]) / min(plain["s"]) - 1,
                                  "ratio")
    return out


def report_ledger(ledger, traced) -> None:
    """Host milliseconds per iteration by layer, and where ``other``
    time went."""
    iterations = len(traced["s"])
    print(f"ledger: {iterations} traced iterations, "
          f"{1e3 * statistics.median(traced['s']):.1f} ms median each")
    for layer, (calls, ns) in ledger.layers().items():
        print(f"  {layer:<22} {calls / iterations:>12.1f} calls "
              f"{ns / iterations / 1e6:>10.2f} ms self")
    top = sorted(ledger.other_modules().items(), key=lambda kv: -kv[1])[:5]
    for module, ns in top:
        print(f"    other: {module:<30} {ns / iterations / 1e6:>8.2f} ms")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}",
              file=sys.stderr)
        return 1
    stray = [name for name in SWITCHES if name in os.environ]
    if stray:
        print(f"perfbench: refusing to run with {', '.join(stray)} set",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    print("manifest " + json.dumps(manifest(workload, args.seed)))
    bench = Bench(workload, args.seed)
    if args.trace:
        bench.prepare()
        ledger, plain, traced, totals = bench.traced(args.seconds)
        report_ledger(ledger, traced)
        metrics = per_layer(ledger, plain, traced, totals)
    else:
        setup = setup_seconds(workload.name, args.seed)
        bench.prepare()
        rates = bench.timed(args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "req_per_s": (best(rates["req"]), "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        print(f"timed: {len(rates['s'])} iterations of "
              f"{len(workload.configs)} runs")
        if any(rates["instr"]):
            print(f"  instr_per_s {best(rates['instr']):.1f} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  error_rate {bench.failed / bench.attempted:.6g} "
          f"({bench.failed}/{bench.attempted} runs failed their check)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
