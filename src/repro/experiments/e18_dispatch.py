"""E18: interpreter raw speed -- pre-decoded dispatch + O(1) WRR issue.

Supporting evidence for the reproduction's own engineering claims
rather than a paper figure: the ISA-level backend is the expensive half
of every cluster experiment (E15's fidelity jump), so the interpreter's
raw speed bounds how far the evaluation can scale. Two mechanisms are
measured here, both required to be *behaviorally invisible*:

- **pre-decoded handler chains** (``repro.isa.decode``): operands
  resolved once, labels to indices, straight-line ALU runs fused into
  superinstructions. Fusion claims byte-identical results to
  per-instruction issue -- the same chain with fusion blocked, which
  is what a traced machine runs -- while doing asymptotically less
  per-cycle work, measured here as retired instructions per engine
  event (the deterministic proxy for dispatch cost; wall-clock against
  the naive fetch-and-dispatch reference in
  ``tests/naive_reference.py`` lives in
  ``benchmarks/bench_isa_dispatch.py``).
- **credit-based weighted round-robin issue** (Section 4: "hardware
  support for thread priorities"): the core's O(1) ring-walk arbiter,
  whose steady-state shares are exactly proportional to thread weight,
  and which degenerates to plain RR -- same pick stream, same pointer
  -- at uniform weights. Table 2 runs it with default priorities
  ("rr") and with weight 1 set explicitly ("wrr"); the independent
  pick-for-pick check against a plain round-robin arbiter lives in the
  test suite (``tests/rr_reference.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.report import ExperimentResult, Verdict
from repro.analysis.tables import Table
from repro.experiments.registry import register
from repro.machine import build_machine

#: contended-share weights (sum 7: shares are exact per 7-pick frame)
WEIGHTS = (4, 2, 1)
#: loop body: always-issueable cost-1 instructions (no fusion, no
#: bursts) so the arbiter decides every single cycle
_SPIN = "loop:\n    addi r1, r1, 1\n    jmp loop"
#: fusable straight-line block + backward branch: fusion's best case,
#: per-instruction issue's worst case
_ALU_LOOP = """
    movi r9, {iters}
    work 1           ; run break: the fused run must START at loop,
                     ; or the back-branch would land mid-run and fall
                     ; back to instruction-at-a-time dispatch
loop:
    movi r2, 7
    addi r2, r2, 5
    xor  r3, r2, r1
    shl  r4, r2, 3
    sub  r5, r4, r3
    or   r6, r5, r2
    and  r7, r6, r4
    mov  r8, r5
    xor  r2, r7, r8
    addi r5, r5, 3
    shr  r6, r5, 1
    addi r1, r1, 1
    bne r1, r9, loop
    halt
"""


def _spin_profile(weights, horizon: int) -> Dict[int, int]:
    """Retirement per ptid; a ``None`` weight keeps the default."""
    machine = build_machine(smt_width=1, hw_threads_per_core=len(weights))
    for ptid, weight in enumerate(weights):
        machine.load_asm(ptid, _SPIN, supervisor=True)
        if weight is not None:
            machine.core(0).set_priority(ptid, weight)
        machine.boot(ptid)
    machine.run(until=horizon)
    return {ptid: machine.thread(ptid).instructions_executed
            for ptid in range(len(weights))}


def _dispatch_cell(traced: bool, iters: int) -> Dict[str, int]:
    """The ALU loop on a fused (untraced) or per-instruction (traced)
    core."""
    machine = build_machine(trace=traced, hw_threads_per_core=2)
    machine.load_asm(0, _ALU_LOOP.format(iters=iters), supervisor=True)
    machine.boot(0)
    machine.run()
    thread = machine.thread(0)
    return {
        "instructions": thread.instructions_executed,
        "cycles": machine.engine.now,
        "events": machine.engine.events_processed,
    }


@register("E18", "Interpreter raw speed: pre-decoded dispatch + "
                 "O(1) weighted-round-robin issue",
          'Section 4 ("Support for Thread Scheduling") + evaluation '
          'infrastructure')
def run(quick: bool = False, seed: int = 0xC0FFEE) -> ExperimentResult:
    horizon = 14_000 if quick else 70_000
    iters = 200 if quick else 2_000
    result = ExperimentResult(
        "E18", "Interpreter raw speed: pre-decoded dispatch + "
               "O(1) weighted-round-robin issue")

    # -- table 1: WRR shares under contention -------------------------
    shares = Table(["ptid", "weight", "instructions", "share",
                    "weight share"],
                   title=f"WRR issue shares, 3 always-runnable threads "
                         f"on 1 slot, {horizon} cycles")
    wrr = _spin_profile(WEIGHTS, horizon)
    total = sum(wrr.values())
    weight_total = sum(WEIGHTS)
    worst_dev = 0.0
    for ptid, weight in enumerate(WEIGHTS):
        share = wrr[ptid] / total
        target = weight / weight_total
        worst_dev = max(worst_dev, abs(share - target) / target)
        shares.add_row(ptid, weight, wrr[ptid], f"{share:.4f}",
                       f"{target:.4f}")
    result.add_table(shares)

    # -- table 2: WRR degenerates to RR at uniform weights ------------
    uniform_wrr = _spin_profile((1, 1, 1), horizon)
    uniform_rr = _spin_profile((None, None, None), horizon)
    degenerate = Table(["ptid", "rr instructions", "wrr instructions"],
                       title="Uniform weights: WRR vs RR, same workload")
    for ptid in uniform_rr:
        degenerate.add_row(ptid, uniform_rr[ptid], uniform_wrr[ptid])
    result.add_table(degenerate)

    # -- table 3: decoded dispatch cost + byte-identity ---------------
    decoded = _dispatch_cell(False, iters)
    unfused = _dispatch_cell(True, iters)
    batching = (unfused["events"] / decoded["events"]
                if decoded["events"] else float("inf"))
    dispatch = Table(["interpreter", "instructions", "cycles",
                      "engine events", "events/instr"],
                     title=f"Tight ALU loop ({iters} iterations): "
                           f"dispatch work per retired instruction")
    for label, cell in (("pre-decoded", decoded),
                        ("per-instruction", unfused)):
        dispatch.add_row(label, cell["instructions"], cell["cycles"],
                         cell["events"],
                         f"{cell['events'] / cell['instructions']:.3f}")
    result.add_table(dispatch)

    result.data["wrr_shares"] = wrr
    result.data["uniform"] = {"rr": uniform_rr, "wrr": uniform_wrr}
    result.data["dispatch"] = {"decoded": decoded,
                               "per_instruction": unfused,
                               "event_batching": round(batching, 2)}

    # -- claims -------------------------------------------------------
    result.add_claim(
        "WRR issue shares are proportional to thread weights",
        "threads used for serving time-sensitive interrupts receive "
        "more cycles (Section 4)",
        f"weights 4:2:1 -> shares {wrr[0]}:{wrr[1]}:{wrr[2]} "
        f"(worst deviation {100 * worst_dev:.2f}%)",
        Verdict.SUPPORTED if worst_dev < 0.02 else Verdict.REFUTED)
    result.add_claim(
        "at uniform weights WRR is pick-for-pick identical to RR",
        "weighted arbitration must not perturb the PS-emulation "
        "baseline it extends",
        "identical per-thread retirement" if uniform_wrr == uniform_rr
        else f"diverged: {uniform_wrr} vs {uniform_rr}",
        Verdict.SUPPORTED if uniform_wrr == uniform_rr
        else Verdict.REFUTED)
    same_arch = (decoded["instructions"] == unfused["instructions"]
                 and decoded["cycles"] == unfused["cycles"])
    result.add_claim(
        "superinstruction fusion is behaviorally invisible",
        "identical retirement counts and final clock; only engine "
        "events (dispatch work) may drop",
        f"instructions {decoded['instructions']} == "
        f"{unfused['instructions']}, cycles {decoded['cycles']} == "
        f"{unfused['cycles']}" if same_arch else "MISMATCH",
        Verdict.SUPPORTED if same_arch else Verdict.REFUTED)
    result.add_claim(
        "decoded chains + fusion cut dispatch work >= 3x on ALU code",
        ">= 3x fewer engine events per retired instruction (the "
        "wall-clock counterpart is benchmarks/bench_isa_dispatch.py)",
        f"{batching:.1f}x fewer engine events",
        Verdict.SUPPORTED if batching >= 3.0 else Verdict.PARTIAL)
    return result
