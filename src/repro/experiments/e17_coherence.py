"""E17: the coherence subsystem, measured.

The paper prices monitor/mwait and the TDT *inside* one machine and
waves at the datacenter ("the distributed system formed by the
machines in a datacenter" -- Section 5). This experiment runs the
three scaling questions the coherence subsystem models:

1. **Sharer scaling** -- monitor on any line rides the cache-coherence
   protocol, so a write to a line with S armed watchers pays the
   directory's invalidation fan-out and the S wakeups arrive as
   *serialized* forwards. Table: S vs writer cost and first/last
   wakeup latency on the live ISA machine with ``coherence="directory"``.

2. **Remote mwait vs callback wakeup** -- an RDMA-style remote store
   into a watched mailbox line wakes a parked ptid at hardware cost;
   today's cluster stack wakes it through the software chain (IRQ +
   scheduler + context switch, the sw-threads transition tax). Both
   deliveries ride the same fabric with common random numbers, so the
   p50/p99 gap isolates the wakeup path.

3. **TDT miss amplification under fan-out** -- one ``invtid`` against
   a flat per-machine TDT costs one 40-cycle rewalk; against a sharded
   TDT it costs every caller shard holding the entry a cross-shard
   refetch. The amplification grows with the fan-out F.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import ExperimentResult, Verdict
from repro.analysis.stats import percentile
from repro.analysis.tables import Table
from repro.arch.costs import CostModel
from repro.cluster.fabric import Fabric
from repro.coherence.remote import RemoteStoreFabric
from repro.coherence.tdt_shard import ShardedTdt
from repro.distributed.rpc import SW_THREADS
from repro.experiments.registry import register
from repro.machine import build_machine
from repro.mem.memory import Memory
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

WAITER_ASM = """
    movi r1, FLAG
    monitor r1
    mwait
    movi r2, RESP
    movi r3, 1
    st r2, 0, r3
    halt
"""

# re-arming mailbox server: wake on a remote store, echo the payload
# into the response line (which the measurement subscribes to), park
MAILBOX_ASM = """
loop:
    movi r1, MBOX
    monitor r1
    mwait
    ld r2, r1, 0
    movi r3, RESP
    st r3, 0, r2
    jmp loop
"""


# ----------------------------------------------------------------------
# part 1: sharer-count vs wakeup latency
# ----------------------------------------------------------------------
def _sharer_sweep(sharers: int) -> Dict[str, int]:
    """S waiters parked on one flag line; one store wakes them all."""
    machine = build_machine(coherence="directory")
    flag = machine.alloc("flag", 64)
    wake_times: Dict[int, int] = {}
    for index in range(sharers):
        response = machine.alloc(f"resp{index}", 64)
        machine.load_asm(index, WAITER_ASM,
                         symbols={"FLAG": flag.base, "RESP": response.base},
                         supervisor=True, name=f"waiter{index}")
        machine.memory.watch_bus.subscribe(
            response.base,
            lambda info, index=index: wake_times.setdefault(
                index, machine.engine.now))
        machine.boot(index)
    machine.run(max_events=50_000)  # park every waiter on mwait
    wake_at = machine.engine.now + 100
    machine.engine.at(wake_at, machine.memory.store, flag.base, 1, "probe")
    # the flag store is the last *shared* write before wake_at + 1 (the
    # waiters' response stores land after the forward delay), so the
    # directory's last_write_cycles at wake_at + 1 is the writer's bill
    writer: Dict[str, int] = {}
    machine.engine.at(wake_at + 1, lambda: writer.setdefault(
        "cycles", machine.coherence.last_write_cycles))
    machine.run(until=wake_at + 200_000)
    machine.check()
    if len(wake_times) != sharers:
        raise AssertionError(
            f"only {len(wake_times)}/{sharers} waiters responded")
    return {
        "sharers": sharers,
        "writer_cycles": writer["cycles"],
        "first_wake": min(wake_times.values()) - wake_at,
        "last_wake": max(wake_times.values()) - wake_at,
    }


# ----------------------------------------------------------------------
# part 2: remote mwait vs rpc-callback wakeup across the fabric
# ----------------------------------------------------------------------
def _remote_mode(nodes: int, rounds: int, mode: str, seed: int,
                 costs: CostModel) -> Dict[str, List[int]]:
    """One client pings every node once per round; per-sample wakeup
    latency and wire delay. Both modes send one message per node per
    round on identically named per-link streams, so the fabric draws
    are common random numbers and the latency gap is pure wakeup path.
    """
    engine = Engine()
    rngs = RngStreams(seed)
    prefix = f"e17.rm.n{nodes}"
    fabric = Fabric(engine,
                    stream_factory=lambda link:
                    rngs.stream(f"{prefix}.net.{link}"))
    send_at: List[int] = []
    latencies: List[int] = []
    wires: List[int] = []
    gap = 50_000  # cycles between rounds: every waiter re-arms first

    if mode == "rdma":
        remote = RemoteStoreFabric(fabric)
        machines = []
        pending: List[int] = []  # send times awaiting a response, FIFO
        for index in range(nodes):
            machine = build_machine(engine=engine, coherence="directory")
            mailbox = machine.alloc("mbox", 64)
            response = machine.alloc("resp", 64)
            machine.load_asm(0, MAILBOX_ASM,
                             symbols={"MBOX": mailbox.base,
                                      "RESP": response.base},
                             supervisor=True, name=f"server{index}")
            machine.memory.watch_bus.subscribe(
                response.base,
                lambda info: latencies.append(engine.now - pending.pop(0)))
            remote.register(f"node{index}", machine.memory, mailbox.base)
            machine.boot(0)
            machines.append(machine)
        engine.run(max_events=200 * nodes)  # park every mailbox server

        def send_round(round_id: int) -> None:
            for index in range(nodes):
                pending.append(engine.now)
                delivery = remote.remote_store("client", f"node{index}",
                                               0, round_id + 1)
                wires.append(delivery - engine.now)

        start = engine.now + 1_000
        for round_id in range(rounds):
            engine.at(start + round_id * gap, send_round, round_id)
        engine.run(until=start + rounds * gap + 200_000)
        for machine in machines:
            machine.check()
    else:
        overhead = SW_THREADS.transition_overhead_cycles(costs)

        def record(sent_at: int) -> None:
            latencies.append(engine.now - sent_at)

        def deliver(sent_at: int) -> None:
            # the callback path: the fabric hands the payload to the
            # host stack, which pays the software wakeup chain before
            # the application thread runs (distributed/rpc.py's
            # sw-threads transition tax)
            engine.after(overhead, record, sent_at)

        def send_round(round_id: int) -> None:
            for index in range(nodes):
                sent_at = engine.now
                delivery = fabric.send_traced("client", f"node{index}",
                                              deliver, sent_at)
                wires.append(delivery - sent_at)

        start = engine.now + 1_000
        for round_id in range(rounds):
            engine.at(start + round_id * gap, send_round, round_id)
        engine.run(until=start + rounds * gap + 200_000)

    if len(latencies) != nodes * rounds:
        raise AssertionError(
            f"{mode}: {len(latencies)}/{nodes * rounds} wakeups recorded")
    return {"latencies": latencies, "wires": wires, "send_at": send_at}


# ----------------------------------------------------------------------
# part 3: TDT miss amplification under fan-out
# ----------------------------------------------------------------------
def _tdt_amplification(fanout: int, shards: int, rounds: int,
                       costs: CostModel) -> Dict[str, float]:
    """F caller shards keep a hot descriptor set cached; one invtid per
    round measures the per-invalidation refetch bill, sharded vs flat.
    """
    hot = list(range(16))
    population = 256

    def churn_cost(n_shards: int) -> float:
        memories = [Memory(size_bytes=1 << 16) for _ in range(n_shards)]
        tdt = ShardedTdt.build(memories, population=population, costs=costs)
        callers = [caller % n_shards for caller in range(fanout)]
        for caller in callers:           # warm every caller's caches
            for vtid in hot:
                tdt.resolve(caller, vtid)
        cycles0, resolves0 = tdt.cycles_total, tdt.resolutions()
        for round_id in range(rounds):
            tdt.invalidate(hot[round_id % len(hot)])
            for caller in callers:
                for vtid in hot:
                    tdt.resolve(caller, vtid)
        cycles = tdt.cycles_total - cycles0
        resolves = tdt.resolutions() - resolves0
        # cycles above the all-hit floor == the bill the churn caused
        return (cycles - resolves * costs.tdt_lookup_cycles) / rounds

    sharded = churn_cost(shards)
    flat = churn_cost(1)
    return {
        "fanout": fanout,
        "sharded_cycles_per_invtid": sharded,
        "flat_cycles_per_invtid": flat,
        "amplification": sharded / flat if flat else 0.0,
    }


# ----------------------------------------------------------------------
@register("E17", "Coherence at scale: directory wakeups, remote mwait, "
                 "sharded TDT",
          'Section 3.1 "No More Interrupts" / Section 3.2 / Section 5')
def run(quick: bool = False, seed: int = 0xC0FFEE) -> ExperimentResult:
    costs = CostModel()
    result = ExperimentResult(
        "E17", "Coherence at scale: directory wakeups, remote mwait, "
               "sharded TDT")

    # --- part 1: sharer scaling ---------------------------------------
    sharer_counts = (1, 2, 4, 8) if quick else (1, 2, 4, 8, 16, 32)
    sweep = [_sharer_sweep(sharers) for sharers in sharer_counts]
    table = Table(["sharers", "writer inval (cyc)", "first wake (cyc)",
                   "last wake (cyc)"],
                  title="Directory wakeup vs sharer count "
                        "(one store, S parked waiters)")
    for row in sweep:
        table.add_row(row["sharers"], row["writer_cycles"],
                      row["first_wake"], row["last_wake"])
    result.add_table(table)
    result.data["sharer_sweep"] = sweep

    # --- part 2: remote mwait vs callback -----------------------------
    node_counts = (2, 4, 8) if quick else (2, 4, 8, 16, 32)
    rounds = 30 if quick else 120
    overhead = SW_THREADS.transition_overhead_cycles(costs)
    remote_rows = []
    for nodes in node_counts:
        rdma = _remote_mode(nodes, rounds, "rdma", seed, costs)
        callback = _remote_mode(nodes, rounds, "callback", seed, costs)
        taxes = {
            mode: [latency - wire for latency, wire
                   in zip(data["latencies"], data["wires"])]
            for mode, data in (("rdma", rdma), ("callback", callback))
        }
        remote_rows.append({
            "nodes": nodes,
            "rdma_p50": percentile(rdma["latencies"], 50),
            "rdma_p99": percentile(rdma["latencies"], 99),
            "callback_p50": percentile(callback["latencies"], 50),
            "callback_p99": percentile(callback["latencies"], 99),
            "rdma_tax_p50": percentile(taxes["rdma"], 50),
            "callback_tax_p50": percentile(taxes["callback"], 50),
        })
    table = Table(["nodes", "rdma p50", "rdma p99", "callback p50",
                   "callback p99", "rdma wake tax p50",
                   "callback wake tax p50"],
                  title="Remote-mwait vs rpc-callback wakeup "
                        "(cycles, common fabric draws)")
    for row in remote_rows:
        table.add_row(row["nodes"], row["rdma_p50"], row["rdma_p99"],
                      row["callback_p50"], row["callback_p99"],
                      row["rdma_tax_p50"], row["callback_tax_p50"])
    result.add_table(table)
    result.data["remote_mwait"] = remote_rows
    result.data["sw_transition_overhead"] = overhead

    # --- part 3: TDT miss amplification -------------------------------
    shards = 8 if quick else 32
    tdt_rounds = 20 if quick else 60
    fanouts = [f for f in (1, 2, 4, 8, 16, 32) if f <= shards]
    tdt_rows = [_tdt_amplification(fanout, shards, tdt_rounds, costs)
                for fanout in fanouts]
    table = Table(["fan-out", "sharded cyc/invtid", "flat cyc/invtid",
                   "amplification"],
                  title=f"TDT invalidation bill vs fan-out "
                        f"({shards} shards vs flat)")
    for row in tdt_rows:
        table.add_row(row["fanout"],
                      round(row["sharded_cycles_per_invtid"], 1),
                      round(row["flat_cycles_per_invtid"], 1),
                      round(row["amplification"], 1))
    result.add_table(table)
    result.data["tdt_amplification"] = tdt_rows

    # --- claims -------------------------------------------------------
    last_wakes = [row["last_wake"] for row in sweep]
    result.add_claim(
        "wakeup fan-out serializes: last wake grows with sharer count",
        "leverage the cache coherence protocol ... notify the core",
        f"last wake {last_wakes[0]} -> {last_wakes[-1]} cyc over "
        f"{sweep[0]['sharers']} -> {sweep[-1]['sharers']} sharers",
        Verdict.SUPPORTED
        if all(a < b for a, b in zip(last_wakes, last_wakes[1:]))
        else Verdict.PARTIAL)
    writer_costs = [row["writer_cycles"] for row in sweep]
    expected = [costs.dir_inval_base_cycles
                + costs.dir_inval_per_sharer_cycles * row["sharers"]
                for row in sweep]
    result.add_claim(
        "the writer pays one invalidation per sharer",
        "the coherence protocol's invalidation fan-out",
        f"measured {writer_costs} == base + per_sharer * S {expected}",
        Verdict.SUPPORTED if writer_costs == expected else Verdict.PARTIAL)

    tax_ratios = [row["callback_tax_p50"] / row["rdma_tax_p50"]
                  for row in remote_rows]
    result.add_claim(
        "a remote store into a watched line wakes a ptid an order of "
        "magnitude below the callback path",
        "instead of employing interrupts ... monitor/mwait",
        f"wake-tax p50 ratio {min(tax_ratios):.0f}x-"
        f"{max(tax_ratios):.0f}x across {node_counts} nodes",
        Verdict.SUPPORTED if min(tax_ratios) >= 10 else Verdict.PARTIAL)
    gaps = [row["callback_p50"] - row["rdma_p50"] for row in remote_rows]
    result.add_claim(
        "the p50 gap is the software transition tax",
        "hundreds of cycles ... context switch",
        f"gap {min(gaps):.0f}-{max(gaps):.0f} cyc vs sw transition "
        f"overhead {overhead} cyc",
        Verdict.SUPPORTED
        if all(0.8 * overhead <= gap <= 1.1 * overhead for gap in gaps)
        else Verdict.PARTIAL)
    result.add_claim(
        "the wakeup-path gap is flat in cluster size",
        "per-context hardware state ... stays flat",
        f"gap spread {max(gaps) / min(gaps):.2f}x over "
        f"{node_counts[0]}-{node_counts[-1]} nodes",
        Verdict.SUPPORTED if max(gaps) / min(gaps) < 1.5
        else Verdict.PARTIAL)

    amps = [row["amplification"] for row in tdt_rows]
    result.add_claim(
        "sharding amplifies invtid cost with fan-out",
        "the update only becomes visible ... invtid (Section 3.2), "
        "scaled out",
        f"amplification {amps[0]:.0f}x -> {amps[-1]:.0f}x over fan-out "
        f"{fanouts[0]} -> {fanouts[-1]}",
        Verdict.SUPPORTED if amps[-1] > amps[0] >= 1.0 else Verdict.PARTIAL)
    return result
