#!/usr/bin/env python
"""Generate the reference docs under docs/ from the source of truth.

- ``docs/isa.md`` -- the instruction set, from :data:`repro.isa.OPS`;
- ``docs/cost-model.md`` -- every latency constant with its value and
  the paper sentence that motivates it, from
  :class:`repro.arch.costs.CostModel`;
- ``docs/experiments.md`` -- the experiment registry with anchors;
- ``docs/observability.md`` -- the instrumentation layer: metric
  namespace (from :data:`repro.obs.snapshot.NAMESPACE`), timeline span
  states, the cycle-attribution buckets, and the Perfetto workflow;
- ``docs/cluster.md`` -- the multi-machine cluster simulation:
  configuration knobs (from :class:`repro.cluster.ClusterConfig`),
  balancing policies, server designs, and the E14 workflow;
- ``docs/backends.md`` -- the pluggable server-backend protocol: the
  registry (from :data:`repro.backends.BACKENDS`), what each fidelity
  level executes, and the E15 agreement check;
- ``docs/coherence.md`` -- the coherence subsystem: the directory
  watch-bus model (knobs from :class:`repro.arch.costs.CostModel`),
  remote-mailbox mwait, the sharded TDT, and the E17 workflow.

``tests/test_docs_fresh.py`` regenerates these in memory and fails if
the committed files drifted from the code.

Run:  python examples/generate_docs.py
"""

import dataclasses
import pathlib

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def isa_markdown() -> str:
    from repro.isa.instructions import OPS

    lines = [
        "# The simulated ISA",
        "",
        "A small RISC-like base plus the seven instructions of the",
        "paper's Section 3.1. Operand kinds: `R` register, `I`",
        "immediate, `RI` either, `N` register *name* (for rpull/rpush/",
        "csr), `L` label. Latencies are base issue cycles; memory and",
        "thread-management costs are layered on from the CostModel.",
        "",
        "| opcode | operands | latency | privileged | description |",
        "|---|---|---|---|---|",
    ]
    for spec in OPS.values():
        lines.append(
            f"| `{spec.name}` | {' '.join(spec.operands) or '-'} "
            f"| {spec.latency} | {'yes' if spec.privileged else ''} "
            f"| {spec.description} |")
    from repro.isa.decode import FUSABLE_OPS
    fusable = ", ".join(f"`{name}`" for name in sorted(FUSABLE_OPS))
    lines += [
        "",
        "## Pre-decoded handler chains",
        "",
        "The interpreter does not re-parse `Instruction` tuples on the",
        "hot path. The first time a `Program` runs on a core,",
        "`repro.isa.decode` lowers it to a `DecodedProgram`: one bound",
        "handler per instruction with operands resolved, labels turned",
        "into indices, and the static issue latency folded in, cached",
        "on the `Program` and shared by every hardware thread that runs",
        "it. `HWCore` then dispatches through the decoded table instead",
        "of the opcode `match`. Decoding is *behaviorally invisible*:",
        "every experiment table is byte-identical with it on or off",
        "(the `predecode-identity` CI job diffs E09 and E15), and E18",
        "measures the mechanisms directly.",
        "",
        "### Superinstruction fusion",
        "",
        "Straight-line runs (length >= 2) of pure register ALU ops --",
        f"{fusable} --",
        "are additionally fused into one superinstruction that retires",
        "the whole run in a single engine event, charging the summed",
        "latency. A fused run only executes from its *first* index; a",
        "jump into the middle of a run falls back to the per-",
        "instruction handlers, and anything that can observe",
        "mid-run state (stops, faults) rewinds via an undo log so",
        "architectural state is exactly what naive stepping produces.",
        "",
        "### Turning it off",
        "",
        "`build_machine(predecode=False)` or `REPRO_NO_PREDECODE=1`",
        "forces the naive interpreter (the env var is how CI proves",
        "identity). Attaching an instruction tracer also falls back to",
        "naive stepping, since tracing wants one event per instruction.",
        "`benchmarks/bench_isa_dispatch.py` records the wall-clock win",
        "per loop shape in `BENCH_engine.json` (`isa_dispatch`).",
        "",
        "## Weighted round-robin issue",
        "",
        "`build_machine(issue_policy='wrr')` selects a credit-based",
        "weighted round-robin arbiter (Section 4's \"hardware support",
        "for thread priorities\" without preemption): each hardware",
        "thread holds an integer credit balance, a ring walk spends one",
        "credit per issue, and balances refill by `weight` once every",
        "ring pass. Selection is O(1) per issued instruction, shares",
        "converge to exact weight proportions under contention (E18",
        "table 1), and at uniform weights the pick stream -- including",
        "the stored ring pointer -- is identical to plain `rr`. Set",
        "weights with `core.set_priority(ptid, weight)`.",
        "",
    ]
    return "\n".join(lines)


def cost_model_markdown() -> str:
    from repro.arch.costs import CostModel

    model = CostModel()
    lines = [
        "# The cost model",
        "",
        "Every latency constant, in cycles at the paper's reference",
        "3 GHz clock (3 cycles = 1 ns). The field-by-field rationale,",
        "with paper quotations, lives in the docstring of",
        "`repro.arch.costs.CostModel`; this table records the defaults.",
        "",
        "| constant | default (cycles) | ns @3GHz |",
        "|---|---|---|",
    ]
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)
        lines.append(f"| `{field.name}` | {value} | {value / 3:.1f} |")
    lines += [
        "",
        "Derived path costs (see the class for the formulas):",
        "",
        "| path | cycles |",
        "|---|---|",
        f"| `baseline_io_wakeup_cycles()` "
        f"| {model.baseline_io_wakeup_cycles()} |",
        f"| `baseline_io_wakeup_cycles(cross_core=True)` "
        f"| {model.baseline_io_wakeup_cycles(cross_core=True)} |",
        f"| `hw_wakeup_cycles('rf')` | {model.hw_wakeup_cycles('rf')} |",
        f"| `hw_wakeup_cycles('l3')` | {model.hw_wakeup_cycles('l3')} |",
        f"| `sw_switch_total_cycles()` | {model.sw_switch_total_cycles()} |",
        f"| `syscall_sync_cycles()` | {model.syscall_sync_cycles()} |",
        f"| `syscall_hw_thread_cycles()` "
        f"| {model.syscall_hw_thread_cycles()} |",
        f"| `vm_exit_hw_thread_cycles()` "
        f"| {model.vm_exit_hw_thread_cycles()} |",
        "",
    ]
    return "\n".join(lines)


def experiments_markdown() -> str:
    from repro.experiments import all_experiments

    lines = [
        "# Experiment registry",
        "",
        "Run any of these with `python -m repro run <id>`; see",
        "EXPERIMENTS.md for the measured tables and claim records.",
        "",
        "| id | title | paper anchor |",
        "|---|---|---|",
    ]
    for experiment in all_experiments():
        lines.append(f"| {experiment.experiment_id} | {experiment.title} "
                     f"| {experiment.paper_anchor} |")
    lines += [
        "",
        "## Running the evaluation",
        "",
        "`python -m repro evaluate [--quick] [--markdown] [--parallel N]`",
        "(or `python examples/run_evaluation.py` with the same flags)",
        "runs every experiment. `--parallel N` fans them across N worker",
        "processes; each experiment builds its own machine from a fixed",
        "seed, so the output is byte-identical to a serial run",
        "(`--parallel 0` uses one worker per CPU).",
        "",
        "## Fast-forward invariants",
        "",
        "The simulator skips busy cycles instead of stepping them",
        "(`HWCore._plan_fast_forward`/`_apply_fast_forward`): when every",
        "issueable hardware thread is mid-`work`, the core advances the",
        "clock in one jump, capped by the earliest of (a) a work burst",
        "ending, (b) a busy thread re-joining the issue pool, (c) the",
        "next pending *foreign* engine event (other cores' per-cycle",
        "resumes live in the engine's step lane and do not count), and",
        "(d) the `run(until=...)` horizon. Under slot contention the",
        "jump is restricted to whole round-robin rotations, which pick",
        "every thread the same number of times and leave the rotation",
        "pointer unchanged. When another component could wake mid-jump",
        "(multi-core machines, cluster nodes), the batch is armed as an",
        "interruptible sleep on the core's wake signal and re-planned at",
        "whatever point it actually resumed. The batch replays per-round",
        "accounting exactly -- retired instructions, per-thread busy",
        "cycles, issue rounds, storage recency order, policy virtual",
        "time, trace stream, and the final clock are identical to naive",
        "stepping; only `events_processed` drops (that is the point).",
        "Set `REPRO_NO_FASTFORWARD=1` (or",
        "`MachineConfig.fast_forward=False`) to force naive stepping;",
        "`tests/test_fastforward_equivalence.py` diffs the two modes on",
        "contended SMT workloads with monitors, DMA wakeups, exceptions,",
        "and cross-core stores that land mid-batch.",
        "",
    ]
    return "\n".join(lines)


def observability_markdown() -> str:
    from repro.obs.metrics import (
        HISTOGRAM_LINEAR_BITS,
        HISTOGRAM_SUBBUCKET_BITS,
    )
    from repro.obs.profile import BUCKETS
    from repro.obs.snapshot import NAMESPACE
    from repro.obs.spans import COMPONENTS as SPAN_COMPONENTS
    from repro.obs.spans import DEFAULT_TOP_K as SPAN_DEFAULT_TOP_K
    from repro.obs.timeline import ThreadState

    lines = [
        "# Observability",
        "",
        "Instrumentation is **off by default and zero-cost when off**:",
        "the issue loop selects an entirely uninstrumented body at",
        "startup, and everything else guards on one attribute-is-None",
        "check. `BENCH_engine.json` records the measured disabled-mode",
        "overhead (`instrumentation.disabled_overhead_pct`, gated <3%",
        "in CI).",
        "",
        "Turn it on per machine with `build_machine(instrument=True)`,",
        "or for a whole region with a session -- every machine built",
        "inside instruments itself, and out-of-machine components",
        "(kernel I/O and queueing servers, cache hierarchies, NICs)",
        "register as metric sources and timeline tracks:",
        "",
        "```python",
        "import repro.obs as obs",
        "",
        'with obs.session("E03") as sess:',
        "    result = experiment.run(quick=True)",
        "snapshot = sess.snapshot()      # JSON-ready metrics + profiles",
        "trace = sess.chrome_trace()     # open in ui.perfetto.dev",
        "```",
        "",
        "From the CLI:",
        "",
        "```",
        "python -m repro run E03 --trace out.json --metrics out-metrics.json",
        "python -m repro profile E03",
        "python -m repro evaluate --quick --metrics metrics-dir/",
        "```",
        "",
        "## Metric namespace",
        "",
        "Hierarchical dotted names; these prefixes are reserved:",
        "",
        "| prefix | meaning |",
        "|---|---|",
    ]
    for prefix, meaning in NAMESPACE.items():
        lines.append(f"| `{prefix}` | {meaning} |")
    lines += [
        "",
        "Counters add across machines; gauges are last-write-wins;",
        "histograms are log-linear (HdrHistogram-style): exact below",
        f"2^{HISTOGRAM_LINEAR_BITS}, then 2^{HISTOGRAM_SUBBUCKET_BITS}",
        "sub-buckets per power of two, so percentile error is bounded",
        f"at 2^-{HISTOGRAM_SUBBUCKET_BITS} (6.25%) relative with",
        "constant memory.",
        "",
        "## Timeline span states",
        "",
        "Per-(core, ptid) spans, emitted from the simulator's own state",
        "chokepoints so the timeline cannot drift from the simulation:",
        "",
        "| state | meaning |",
        "|---|---|",
    ]
    descriptions = {
        ThreadState.RUNNING: "RUNNABLE: competing for issue slots",
        ThreadState.MWAIT: "WAITING: parked on a monitor address",
        ThreadState.STOPPED: "DISABLED: stopped / not yet started",
        ThreadState.SPILLED: "state demoted out of the register file",
    }
    for state in ThreadState:
        lines.append(f"| `{state.value}` | {descriptions[state]} |")
    lines += [
        "",
        "In the Perfetto export each core is a *process* and each ptid",
        "a *thread*; session-level component tracks (I/O and queueing",
        "servers) appear as their own named processes. Timestamps are",
        "microseconds at the machine's configured frequency; the exact",
        "cycle stamps ride along in `args`.",
        "",
        "## Cycle attribution",
        "",
        "`python -m repro profile <id>` buckets every cycle of every",
        "core into exactly one of:",
        "",
    ]
    lines += [f"- `{bucket}`" for bucket in BUCKETS]
    lines += [
        "",
        "The invariant -- enforced by `CoreProfile.snapshot` and checked",
        "on every experiment in `tests/test_obs_profile.py` -- is that",
        "the buckets sum *exactly* to `engine.now` for every core.",
        "",
        "## Tracing",
        "",
        "`repro.obs.spans` adds per-request distributed tracing over",
        "the cluster layer: every request becomes a span tree -- client",
        "send, balancer pick, fabric hop, node admission, backend",
        "service, reply hop, plus hedged-attempt siblings -- and the",
        "tree's **critical path** decomposes the end-to-end latency",
        "*exactly* into seven components:",
        "",
    ]
    lines += [f"- `{name}`" for name in SPAN_COMPONENTS]
    lines += [
        "",
        "The conservation invariant (a hypothesis property test in",
        "`tests/test_spans.py` pins it): for every completed request",
        "the components are non-negative and sum to `settled - arrived`,",
        "cycle for cycle. `queue` is the node-phase residual -- backlog,",
        "PS/FIFO sharing, and (isa backend) the machine-charged wakeup/",
        "dispatch cycles -- and every other component is a lower bound",
        "the simulation itself enforces.",
        "",
        "Sampling is tail-based: full trees are retained only for the",
        "`top_k` slowest requests (default",
        f"{SPAN_DEFAULT_TOP_K}) plus a deterministic",
        "1-in-`sample_every` sample by request id (0 disables); every",
        "completed request still feeds the per-component histograms and",
        "the exact per-request decomposition behind",
        "`SpanStore.percentile_request`. Tracing is ambient and",
        "zero-cost when off -- every emitter captures the active store",
        "at construction and guards on one attribute-is-None check --",
        "and PDES-aware: shard workers record node fragments locally",
        "and ship them home, so a sharded run reproduces the",
        "single-engine span payload byte for byte.",
        "",
        "```python",
        "import repro.obs.spans as spans",
        "from repro.cluster import ClusterConfig, run_cluster",
        "",
        "with spans.tracing(top_k=8) as store:",
        "    run_cluster(config, seed=7)",
        "p99 = store.percentile_request(99.0)   # exact decomposition",
        "trees = store.exemplars()              # the retained span trees",
        "```",
        "",
        "From the CLI:",
        "",
        "```",
        "python -m repro trace --design sw-threads --nodes 8 --top 5",
        "python -m repro cluster --design all --span-trace spans.json",
        "python -m repro run E16 --quick --spans trees.json \\",
        "    --span-trace spans.trace.json",
        "python -m repro evaluate --quick --spans spans-dir/",
        "```",
        "",
        "`trace` pretty-prints the K slowest trees with per-component",
        "percentages; the `--span-trace` files are Perfetto/Chrome",
        "trace-event JSON where each request is a process whose",
        "`critical path` lane tiles `[start, end]` exactly. E16 (tail",
        "anatomy) is the experiment built on this layer: it dissects",
        "the p50-vs-p99 critical paths per design and ties the growing",
        "sw-threads tail to the switch-tax component plus the queueing",
        "it induces.",
        "",
    ]
    return "\n".join(lines)


def cluster_markdown() -> str:
    from repro.cluster import DESIGNS, ClusterConfig
    from repro.cluster.balancer import POLICIES
    from repro.distributed.rpc import CROWD_CACHE_CAP, CROWD_UNIT

    config = ClusterConfig()
    lines = [
        "# The cluster simulation",
        "",
        "`repro.cluster` composes many RPC server nodes -- each running",
        "one of the paper's three server designs -- into a simulated",
        "datacenter on a single discrete-event engine: a network fabric",
        "with per-link latency and loss, a load balancer, fan-out with",
        "the cluster response taken as the *slowest* shard, and hedged",
        "requests. It is the substrate for experiment E14 (the",
        "transition tax at scale) and the `python -m repro cluster` CLI",
        "verb.",
        "",
        "```python",
        "from repro.cluster import ClusterConfig, DESIGNS, run_cluster",
        "",
        "config = ClusterConfig(nodes=16, design=DESIGNS['sw-threads'],",
        "                       policy='p2c', fanout=8, load=0.3)",
        "result = run_cluster(config, seed=0xC0FFEE)",
        "print(result.summary['p99'], result.summary['conserved'])",
        "```",
        "",
        "## Configuration",
        "",
        "| field | default | meaning |",
        "|---|---|---|",
    ]
    meanings = {
        "nodes": "machines in the cluster",
        "design": "per-node server design (see below)",
        "policy": "shard placement policy (see below)",
        "fanout": "shards per request; the response is the slowest",
        "load": "offered load per node of the base service",
        "mean_service_cycles": "mean CPU demand of one shard",
        "segments": "CPU bursts per shard, separated by remote calls",
        "rtt_cycles": "mid-request remote-call round trip, per gap",
        "requests": "open-loop arrivals to issue",
        "cores_per_node": "CPU capacity of each node",
        "queue_limit": "per-node admission bound (None = unbounded)",
        "hedge_after": "cycles before a backup shard is sent "
                       "(None = no hedging)",
        "threads_per_peer": "resident worker threads each cluster peer "
                            "keeps on every node (fan-in pool)",
        "link": "network link spec: base + jitter cycles, drop "
                "probability",
        "horizon_factor": "run horizon in mean-arrival-gap multiples",
        "backend": "server backend per node: `model` (behavioral) or "
                   "`isa` (full machine); see docs/backends.md",
        "probe_delay_cycles": "jsq/p2c load-signal staleness: in-flight "
                              "counts come from a snapshot at most this "
                              "old (0 = exact oracle)",
        "racks": "nodes are striped over racks as `node_id % racks`; "
                 "the client sits in rack 0",
        "cross_rack_link": "link spec for client<->other-rack messages "
                           "(None = same as `link`)",
        "placement": "`any` spreads shards cluster-wide; `same-rack` "
                     "keeps them in the client's rack",
        "shards": "engine shards: partition the nodes over this many "
                  "worker engines (parallel-in-time PDES; 1 = classic "
                  "single-engine run)",
        "coherence": "watch-bus coherence on each node's machine: `off` "
                     "(flat free bus), `directory` (priced MSI "
                     "directory), `null` (directory at zero cost); "
                     "requires `backend='isa'`; see docs/coherence.md",
    }
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        shown = getattr(value, "name", value)
        lines.append(f"| `{field.name}` | `{shown}` "
                     f"| {meanings[field.name]} |")
    lines += [
        "",
        "## Server designs",
        "",
        "| design | discipline | crowd-sensitive |",
        "|---|---|---|",
    ]
    for name, design in DESIGNS.items():
        sensitive = "yes" if name == "sw-threads" else "no"
        lines.append(f"| `{name}` | {design.discipline} | {sensitive} |")
    lines += [
        "",
        "A node keeps `threads_per_peer x nodes` software threads",
        "resident (the thread-per-connection fan-in pool). Only the",
        "sw-threads design pays for that crowd: its per-transition",
        "overhead grows with the runqueue (log-scaled per",
        f"{CROWD_UNIT} resident threads) and with cache pollution",
        f"(linear, capped at {CROWD_CACHE_CAP} threads). Hardware",
        "threads hold per-context state and the event loop runs one",
        "stack, so neither pays -- this is how the transition tax",
        "grows with cluster size in E14 while hw-threads stays flat.",
        "",
        "## Balancing policies",
        "",
        "| policy | placement |",
        "|---|---|",
        "| `random` | uniform over nodes (Poisson splitting) |",
        "| `round-robin` | cyclic (Erlang-smoothed per-node arrivals) |",
        "| `jsq` | join the shortest queue (full load information) |",
        "| `p2c` | power of two choices: best of two random nodes |",
    ]
    assert set(POLICIES) == {"random", "round-robin", "jsq", "p2c"}
    lines += [
        "",
        "## Determinism",
        "",
        "Every draw comes from named RNG streams keyed off the",
        "*workload* (node count, policy, fanout, load -- not the server",
        "design), so hw-threads and sw-threads clusters face identical",
        "arrivals, service draws, and placements: common random",
        "numbers. The same `(config, seed)` pair is byte-identical",
        "across processes, which is what lets `evaluate --parallel`",
        "reproduce serial snapshots exactly.",
        "",
        "Conservation is exact and checked on every run:",
        "`issued == completed + dropped + in_flight` at the service,",
        "`admitted == completed + in_flight` per node, and every shard",
        "attempt is accounted to exactly one of completed, on-the-wire,",
        "wire-dropped, rejected, in-service, or hedge-superseded.",
        "",
        "## Parallel-in-time sharding (conservative PDES)",
        "",
        "`shards=N` partitions the nodes over `N` worker engines",
        "(`node_id % N`, the same striping racks use) and runs them as",
        "a conservative parallel discrete-event simulation",
        "(`repro.cluster.pdes`). The client -- balancer, fabric,",
        "front-end, workload -- stays on the coordinator engine and",
        "talks to per-node proxies; requests cross to workers as",
        "timestamped messages over pipes.",
        "",
        "Safety comes from *lookahead*: every client->node message",
        "pays at least the minimum link base latency on the wire",
        "(`request_lookahead`), so a worker that has seen all messages",
        "sent by time `T` can run through `T + lookahead` without risk",
        "-- the paper's own asymmetry (cross-machine communication",
        "costs orders of magnitude more than an intra-machine context",
        "switch) recast as a synchronization guarantee. State-free",
        "routing (`random`, `round-robin`, no hedging) upgrades to a",
        "decoupled pipeline: a generation pass streams the outbound",
        "request sequence ahead of the workers in adaptive windows,",
        "and the client replays responses behind them. Load-aware",
        "routing (`jsq`, `p2c`) and hedging fall back to lockstep",
        "lookahead windows.",
        "",
        "Sharding is *invisible in the results*: every shard replays",
        "exactly the RNG draws its nodes and links would have made on",
        "the shared engine (per-directed-link streams), so the",
        "summary, the latency quantiles, and the obs snapshot are",
        "byte-identical to `shards=1` -- `tests/test_pdes.py` pins",
        "this down, and a mirror cross-check audits every run. Worker",
        "transports: `process` (real worker processes, the default)",
        "and `inline` (same-process debug mode). `run_sharded` reports",
        "the protocol audit in `result.service.pdes` (mode, windows,",
        "lookahead, minimum observed slack, spin/park counts).",
        "",
        "## CLI",
        "",
        "```",
        "python -m repro cluster --nodes 16 --design all --fanout 8 \\",
        "    --policy p2c --load 0.3",
        "python -m repro cluster --nodes 8 --drop-prob 0.01 \\",
        "    --hedge-after 160000 --json",
        "python -m repro cluster --nodes 32 --shards 4 \\",
        "    --shard-transport process   # PDES, same bytes out",
        "python -m repro run E14 --quick   # the full tail-at-scale story",
        "```",
        "",
        "`examples/cluster_service.py` walks the same pieces with",
        "commentary.",
        "",
    ]
    return "\n".join(lines)


def backends_markdown() -> str:
    from repro.backends import backend_names
    from repro.backends.machine import DEFAULT_SLOTS
    from repro.cluster import DESIGNS

    lines = [
        "# Server backends",
        "",
        "The cluster layer programs against the `ServerBackend`",
        "protocol (`repro.backends.base`): submit a segmented request",
        "now, call `on_done` at its completion, account CPU busy",
        "cycles, record per-request latency. Implementations register",
        "in the string-keyed `repro.backends.BACKENDS` table and are",
        "selected per run with `ClusterConfig(backend=...)` or",
        "`python -m repro cluster --backend ...`; an unknown name",
        "raises a `ConfigError` listing the registered alternatives.",
        "",
        "| backend | what executes | cost of fidelity |",
        "|---|---|---|",
        "| `model` | behavioral `RpcServerModel`: queueing servers "
        "(PS or FIFO) plus the analytic per-transition cost model "
        "| negligible -- scales to E14's 32-node sweeps |",
        "| `isa` | `MachineBackend`: one ISA-level `Machine` per node "
        "on the shared engine, thread-per-request assembly, "
        "monitor/mwait blocking on remote calls | every guest cycle "
        "is simulated -- keep clusters small |",
        "",
        "## What the ISA backend runs",
        "",
        "Each admitted request is assembled into straight-line blocking",
        "code and bound to one of the node's hardware-thread slots",
        f"({DEFAULT_SLOTS} per node; overflow queues FIFO):",
        "",
        "```asm",
        "    work <segment 0>",
        "    movi r1, REPLY",
        "    monitor r1        ; armed before the call: no lost wakeup",
        "    movi r2, REQ",
        "    movi r3, 1",
        "    st r2, 0, r3      ; issue the remote call",
        "    mwait             ; simple blocking semantics",
        "    work <segment 1>",
        "    ...",
        "    st r4, 0, r5      ; DONE mailbox -> completion callback",
        "    halt",
        "```",
        "",
        "Per design:",
        "",
    ]
    assert set(DESIGNS) == {"hw-threads", "sw-threads", "event-loop"}
    lines += [
        "- **hw-threads** -- thread-per-request with *no* analytic",
        "  overhead: monitor wakeup cost and storage-tier start latency",
        "  are charged by the simulated hardware itself;",
        "- **sw-threads** -- the same program, but each segment carries",
        "  the software transition tax (scheduler + double switch +",
        "  crowd-scaled cache pollution, frozen at the crowding level",
        "  observed at submit) as extra `work` cycles the core really",
        "  burns;",
        "- **event-loop** -- a single worker ptid runs segments to",
        "  completion from a FIFO continuation queue; head-of-line",
        "  blocking is physical, since the worker cannot be reloaded",
        "  until the running segment halts.",
        "",
        "The node machine issues one instruction per cycle",
        "(`smt_width=1`) round-robin over runnable slots -- processor",
        "sharing at one-cycle granularity, matching the behavioral PS",
        "discipline.",
        "",
        "## Common random numbers across fidelity levels",
        "",
        "`ClusterConfig.workload_label()` excludes the backend (and the",
        "design), so `model` and `isa` clusters face identical arrival",
        "times, service draws, placements, and network jitter. A",
        "backend comparison therefore measures the fidelity jump",
        "itself, nothing else. The default backend also keeps its exact",
        "historical stream labels: the refactor is byte-identical for",
        "every pre-existing configuration.",
        "",
        "## The agreement check (E15)",
        "",
        "`python -m repro run E15` replays the same low-load cluster",
        "workload against both backends and checks that (a) per-design",
        "cluster p99 agrees within 2x across the fidelity jump, (b) the",
        "sw/hw tail ordering -- the paper's headline -- survives it,",
        "and (c) conservation holds on both. See EXPERIMENTS.md for the",
        "measured tables.",
        "",
        "## Registering a backend",
        "",
        "```python",
        "from repro.backends import BACKENDS",
        "",
        "def build_mine(engine, design, costs, cores, resident_threads):",
        "    return MyBackend(...)   # satisfies ServerBackend",
        "",
        'BACKENDS["mine"] = build_mine',
        "```",
        "",
        f"Registered today: {', '.join(f'`{n}`' for n in backend_names())}.",
        "",
    ]
    return "\n".join(lines)


def engine_markdown() -> str:
    from repro.kernel.sched import ProcessorSharingServer
    from repro.sim.engine import _COMPACT_MIN_QUEUE

    lines = [
        "# The discrete-event engine",
        "",
        "One engine drives everything -- behavioral queueing models,",
        "ISA machines, and whole clusters share a single event queue",
        "with deterministic `(time, insertion-seq)` dispatch order.",
        "The public surface is `at`/`after` (returning a cancellable",
        "`ScheduledCall`), `run`/`run_until_idle`/`step`, and",
        "`next_event_time`.",
        "",
        "## One binary heap",
        "",
        "Pending events live in one binary heap of `(time, seq, call)`",
        "tuples. `seq` is a monotone counter, so same-time events",
        "dispatch in the order they were scheduled, and a given program",
        "interleaves its events identically on every run. Cancellation",
        "tombstones the entry in O(1); the heap is compacted in place",
        "once cancelled entries outnumber live ones (and the queue is at",
        f"least {_COMPACT_MIN_QUEUE} long). `run(until=..., max_events=...)`",
        "holds the only dispatch loop: `step()` is `run(max_events=1)`",
        "and `run_until_idle()` is `run()`.",
        "",
        "```python",
        "from repro.sim.engine import Engine",
        "",
        "engine = Engine()",
        "seen = []",
        "engine.after(5, seen.append, 'b')",
        "engine.at(5, seen.append, 'c')",
        "engine.after(1, seen.append, 'a')",
        "engine.run()",
        "assert seen == ['a', 'b', 'c'] and engine.now == 5",
        "```",
        "",
        "A calendar-queue (timer-wheel) store used to sit beside the heap",
        "behind a switch. Both dispatched in the same order, and on the",
        "cluster workloads the heap was as fast or faster (E14 micro-run",
        "165.7k vs 158.1k events/s, E15 78.4k vs 60.7k), so the wheel and",
        "the switch were deleted. `tests/test_engine_oracle.py` now",
        "checks the heap against a plain list model sorted by",
        "`(time, seq)`, on random programs that schedule, cancel and",
        "resume bounded runs.",
        "",
        "## The step lane",
        "",
        "ISA cores resume their issue loops every simulated cycle. Those",
        "resumes are scheduled through `at_step`/`after_step` into a",
        "separate *step lane* that merges into dispatch by the same",
        "`(time, seq)` key but is excluded from",
        "`next_foreign_event_time()` -- the horizon the busy-cycle",
        "fast-forward jumps to. A core grinding cycle-by-cycle is not an",
        "external deadline for another core's batch, which is what lets",
        "multi-machine clusters of ISA backends fast-forward at all",
        "(docs/backends.md, E15).",
        "",
        "## Cancellation-free completions",
        "",
        "The timer-heavy client of the engine is the processor-sharing",
        "server (`kernel/sched.py`). Its completion timer is",
        "*lazy-deadline*: an arrival can only delay the head job's",
        "completion, so the armed timer is kept and re-validated when it",
        "fires -- the common arrival path schedules zero cancels. A",
        "fired timer pops every job within",
        f"{ProcessorSharingServer.COMPLETION_EPSILON} virtual cycles of",
        "the progress accumulator (absorbing integer rounding of the",
        "deadline, never force-popping an undone job -- a hypothesis",
        "property test pins this) and re-arms from current state.",
        "",
        "## Benchmarks",
        "",
        "`benchmarks/bench_engine_throughput.py` writes",
        "`BENCH_engine.json` (raw dispatch events/sec, core cycles/sec,",
        "evaluation wall-clock); `benchmarks/bench_e14_cluster.py` and",
        "`benchmarks/bench_e15_backends.py` write `BENCH_cluster.json`",
        "(cluster wall-clock and events/sec, with the measuring host).",
        "`benchmarks/bench_smoke.py` re-measures the quick numbers in CI",
        "and fails on a >25% events/sec regression against the",
        "committed baselines.",
        "",
    ]
    return "\n".join(lines)


def coherence_markdown() -> str:
    import dataclasses as dc

    from repro.arch.costs import CostModel
    from repro.coherence import MODEL_NAMES
    from repro.obs.snapshot import NAMESPACE

    model = CostModel()
    lines = [
        "# The coherence subsystem",
        "",
        "`repro.coherence` prices the paper's two core primitives --",
        "monitor/mwait on any line (Section 3.1) and the TDT (Section",
        "3.2) -- once they leave the single free-coherence machine the",
        "seed models, and then scales them across the cluster fabric.",
        "Three layers:",
        "",
        "1. **Directory protocol**",
        "   (`repro.coherence.directory.DirectoryModel`): an MSI-style",
        "   per-line directory behind the watch bus. Arming a monitor",
        "   joins the line's sharer set; a store to a shared line pays",
        "   the directory visit plus one invalidation per sharer, and",
        "   each sharer's wakeup is *forwarded* with a per-position",
        "   delay instead of arriving in the write's cycle. The hook is",
        "   `WatchBus.coherence`; left at `None` (the default",
        "   everywhere) the bus reproduces the seed's flat behavior",
        "   byte-identically.",
        "2. **Cross-machine mwait**",
        "   (`repro.coherence.remote.RemoteStoreFabric`): RDMA-style",
        "   remote stores into per-node mailbox lines, carried by the",
        "   cluster `Fabric` and delivered as *real stores* through the",
        "   destination machine's watch bus -- so a parked ptid on node",
        "   A wakes at hardware cost when node B writes its mailbox,",
        "   instead of paying the callback path's software wakeup",
        "   chain (`distributed/rpc.py`).",
        "3. **Sharded TDT** (`repro.coherence.tdt_shard.ShardedTdt`):",
        "   per-node TDT partitions (vtid's home shard is `vtid % n`);",
        "   remote resolutions either hit a bounded per-caller cache or",
        "   cross the fabric; `invtid` broadcasts to every shard's",
        "   caches. Under fan-out, churn turns 40-cycle walks into",
        "   cross-fabric round trips (miss amplification).",
        "",
        "## Enabling it",
        "",
        "```python",
        "from repro.machine import build_machine",
        "machine = build_machine(coherence='directory')",
        "",
        "from repro.cluster import ClusterConfig",
        "config = ClusterConfig(backend='isa', coherence='directory')",
        "```",
        "",
        f"Registered models: {', '.join(f'`{n}`' for n in MODEL_NAMES)}.",
        "`null` runs the directory code path with every latency zero --",
        "synchronous delivery, so it is byte-identical to `off`; the CI",
        "identity gate compares exactly that. The `REPRO_COHERENCE` env",
        "var applies a model to every machine whose config leaves",
        "`coherence=None`.",
        "",
        "## Cost knobs",
        "",
        "All from the `CostModel` (see docs/cost-model.md):",
        "",
        "| constant | default (cycles) |",
        "|---|---|",
    ]
    for field in dc.fields(model):
        if field.name.startswith("dir_") or field.name == \
                "tdt_cross_shard_cycles":
            lines.append(f"| `{field.name}` "
                         f"| {getattr(model, field.name)} |")
    lines += [
        "",
        "Charging points: `monitor` pays `dir_arm_cycles`; a store or",
        "`faa` to a shared line pays `dir_inval_base_cycles +",
        "dir_inval_per_sharer_cycles x sharers`; the k-th sharer's",
        "wakeup is delivered after `dir_forward_cycles + k x",
        "dir_inval_per_sharer_cycles + dir_disarm_cycles`; `stop` of a",
        "waiting ptid pays the disarm retire.",
        "",
        "## Observability",
        "",
        "Metric namespaces (see docs/observability.md):",
        "",
        "| prefix | meaning |",
        "|---|---|",
    ]
    for prefix, meaning in NAMESPACE.items():
        if prefix.startswith("coherence."):
            lines.append(f"| `{prefix}` | {meaning} |")
    lines += [
        "",
        "Sources register where the machine lives, so a PDES shard",
        "worker ships its nodes' directory counters home and a sharded",
        "snapshot carries the same `coherence.*` namespaces as the",
        "single-engine run (round-trip tested in",
        "`tests/test_coherence.py`).",
        "",
        "## E17",
        "",
        "```",
        "python -m repro run E17 --quick",
        "```",
        "",
        "Three tables: wakeup latency vs sharer count (monotone in the",
        "sharer count by construction of the serialized forwards),",
        "remote-mwait vs rpc-callback wakeup p50/p99 across 2-32 nodes",
        "over identical fabric draws, and TDT miss amplification vs",
        "fan-out.",
        "",
    ]
    return "\n".join(lines)


GENERATORS = {
    "isa.md": isa_markdown,
    "engine.md": engine_markdown,
    "cost-model.md": cost_model_markdown,
    "experiments.md": experiments_markdown,
    "observability.md": observability_markdown,
    "cluster.md": cluster_markdown,
    "backends.md": backends_markdown,
    "coherence.md": coherence_markdown,
}


def main() -> None:
    DOCS.mkdir(exist_ok=True)
    for name, generate in GENERATORS.items():
        path = DOCS / name
        path.write_text(generate())
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
