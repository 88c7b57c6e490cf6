"""ISA dispatch bench: pre-decoded handler chains vs the naive oracle.

Measures raw interpreter throughput (retired instructions per second of
wall clock) on the three loop shapes that bound the decode cache's
win -- fusable straight-line ALU blocks (best case), a cost-1 branchy
loop (dispatch overhead only, no fusion), and a load/store loop (memory
handlers) -- plus the full E15 experiment wall-clock, the ISA-heavy
evaluation the decode path exists to keep cheap. The naive side runs
the fetch-and-dispatch interpreter kept as the test oracle
(``tests/naive_reference.py``). Run as a script to record the results,
with the host, into the ``isa_dispatch`` section of
``BENCH_engine.json``: a record, which no gate reads. The paired speed
gates in ``bench_smoke.py`` time ``_run_once`` on the decoded side
alone, against the base tree.

Run:  PYTHONPATH=src python benchmarks/bench_isa_dispatch.py [--quick]
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_engine.json"

#: 12 fusable ALU ops per iteration; the run starts exactly at the
#: back-branch target (the `work 1` break keeps the prologue out of
#: the run) so every iteration executes as one superinstruction
_ALU = """
    movi r9, {iters}
    work 1
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

#: nothing to fuse (single-ALU runs): pure dispatch-cost comparison
_BRANCHY = """
    movi r9, {iters}
loop:
    addi r1, r1, 1
    bne r1, r9, loop
    halt
"""

#: the memory handlers (ld/st resolve operands once in decoded form)
_MEMORY = """
    movi r9, {iters}
    movi r2, BUF
loop:
    st r2, 0, r1
    ld r3, r2, 0
    addi r1, r1, 1
    bne r1, r9, loop
    halt
"""

WORKLOADS = {
    "alu": (_ALU, 20_000),
    "branchy": (_BRANCHY, 60_000),
    "memory": (_MEMORY, 25_000),
}


def _run_once(source: str, iters: int, naive: bool) -> float:
    """One cold machine; returns retired instructions per wall second."""
    from contextlib import nullcontext

    from repro.machine import build_machine
    from tests.naive_reference import naive_interpreter

    machine = build_machine(cores=1, hw_threads_per_core=2)
    symbols = {"BUF": machine.alloc("buf", 64).base} \
        if "BUF" in source else None
    machine.load_asm(0, source.format(iters=iters), supervisor=True,
                     symbols=symbols)
    machine.boot(0)
    with naive_interpreter() if naive else nullcontext():
        start = time.perf_counter()
        machine.run()
        elapsed = time.perf_counter() - start
    return machine.thread(0).instructions_executed / elapsed


def bench_workload(name: str, trials: int = 3,
                   scale: int = 1) -> dict:
    source, iters = WORKLOADS[name]
    iters //= scale
    decoded = naive = 0.0
    _run_once(source, iters, False)      # warm caches before measuring
    for _ in range(trials):
        decoded = max(decoded, _run_once(source, iters, False))
        naive = max(naive, _run_once(source, iters, True))
    return {
        "iters": iters,
        "predecode_instr_per_sec": round(decoded),
        "naive_instr_per_sec": round(naive),
        "speedup": round(decoded / naive, 2),
    }


def micro_bench(scale: int = 1) -> dict:
    """Fresh per-workload numbers, decoded and naive."""
    return {name: bench_workload(name, scale=scale) for name in WORKLOADS}


def test_decoded_beats_naive_on_alu():
    cell = bench_workload("alu", trials=2, scale=4)
    assert cell["speedup"] > 1.5


def main(quick: bool) -> None:
    from benchmarks._cluster_bench import host, timed_experiment

    payload = {"host": host(), "workloads": micro_bench()}
    if not quick:
        payload["e15_full"] = timed_experiment("E15", quick=False)
    data = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    data["isa_dispatch"] = payload
    OUTPUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps({"isa_dispatch": payload}, indent=2))
    print(f"\nwrote {OUTPUT}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main(quick="--quick" in sys.argv[1:])
