"""Property tests for the decoded-dispatch and WRR-issue contracts.

Two randomized equivalences back the E18 claims:

- *decode transparency*: for random programs over the ALU / memory /
  branch / work subset -- ``work`` with an immediate, or with a length
  a ``movi`` put in a register, read each time the ``work`` issues --
  a machine running the pre-decoded handler chains finishes with
  exactly the architectural state, retirement counts, busy-cycle
  totals, and final clock of the naive interpreter oracle in
  ``tests/naive_reference.py``;
- *WRR degenerates to RR*: at uniform weights
  :class:`~repro.hw.issue.WeightedRoundRobinIssue` must reproduce the
  pick stream of the plain round-robin reference in
  ``tests/rr_reference.py`` exactly -- pointer arithmetic and all --
  over arbitrary issueable subsets and widths.
"""

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_machine
from repro.hw.issue import WeightedRoundRobinIssue
from tests.naive_reference import naive_interpreter
from tests.rr_reference import RoundRobinIssue

# ----------------------------------------------------------------------
# random straight-line-with-forward-branches programs
# ----------------------------------------------------------------------

_ALU = st.sampled_from(["addi {d}, {a}, {imm}", "add {d}, {a}, {b}",
                        "sub {d}, {a}, {b}", "xor {d}, {a}, {b}",
                        "shl {d}, {a}, {shift}", "shr {d}, {a}, {shift}",
                        "movi {d}, {imm}", "mov {d}, {a}",
                        "mul {d}, {a}, {b}"])
_REG = st.integers(min_value=1, max_value=7)


@st.composite
def _programs(draw):
    """A terminating program: random ALU/work/load/store body with
    forward skips and countdown loops, ending in halt. Termination is
    structural: pc only moves backwards in a loop whose counter (r8,
    which nothing else writes) falls on every pass."""
    body = []
    length = draw(st.integers(min_value=1, max_value=14))
    for index in range(length):
        kind = draw(st.integers(min_value=0, max_value=10))
        if kind <= 5:
            tmpl = draw(_ALU)
            body.append(tmpl.format(
                d=f"r{draw(_REG)}", a=f"r{draw(_REG)}", b=f"r{draw(_REG)}",
                imm=draw(st.integers(min_value=-64, max_value=64)),
                shift=draw(st.integers(min_value=0, max_value=8))))
        elif kind == 6:
            body.append(f"work {draw(st.integers(min_value=1, max_value=50))}")
        elif kind == 7:
            body.append(f"ld r{draw(_REG)}, r0, BUF")
        elif kind == 8:
            body.append(f"st r0, BUF, r{draw(_REG)}")
        elif kind == 9:
            # a register-fed work: the same instruction issues once per
            # pass with a smaller length each time (below 1 costs one
            # cycle)
            start = draw(st.integers(min_value=-2, max_value=40))
            step = draw(st.integers(min_value=1, max_value=15))
            body += [f"movi r8, {start}", f"loop{index}:", "work r8",
                     f"addi r8, r8, -{step}", f"blt r0, r8, loop{index}"]
        else:
            # forward skip: branch to the label at the end of the body
            body.append(f"bne r{draw(_REG)}, r0, end")
    body.append("end:")
    body.append("halt")
    return "\n".join(body)


@given(sources=st.lists(_programs(), min_size=1, max_size=3),
       smt_width=st.integers(min_value=1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_predecoded_runs_match_naive(sources, smt_width):
    def run(naive):
        machine = build_machine(cores=1, hw_threads_per_core=4,
                                smt_width=smt_width)
        buf = machine.alloc("buf", 64)
        for ptid, source in enumerate(sources):
            machine.load_asm(ptid, source, supervisor=True,
                             symbols={"BUF": buf.base})
            machine.boot(ptid)
        with naive_interpreter() if naive else nullcontext():
            machine.run()
        threads = [machine.thread(p) for p in range(len(sources))]
        return {
            "now": machine.engine.now,
            "snapshots": [t.arch.snapshot() for t in threads],
            "instructions": [t.instructions_executed for t in threads],
            "cycles_busy": [t.cycles_busy for t in threads],
            "finished": [t.finished for t in threads],
        }

    assert run(False) == run(True)


# ----------------------------------------------------------------------
# WRR == RR at uniform weights
# ----------------------------------------------------------------------

class _Thread:
    __slots__ = ("ptid", "priority")

    def __init__(self, ptid, priority=1):
        self.ptid = ptid
        self.priority = priority


@given(rounds=st.lists(
    st.tuples(st.sets(st.integers(min_value=0, max_value=7),
                      min_size=1, max_size=8),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_wrr_equals_rr_at_uniform_weights(rounds):
    pool = {ptid: _Thread(ptid) for ptid in range(8)}
    rr, wrr = RoundRobinIssue(), WeightedRoundRobinIssue()
    seen = set()
    for members, width in rounds:
        issueable = [pool[p] for p in sorted(members)]
        for thread in issueable:
            if thread.ptid not in seen:       # a ptid joining the pool
                seen.add(thread.ptid)
                rr.note_enqueue(thread)
                wrr.note_enqueue(thread)
        rr_picks = [t.ptid for t in rr.select(issueable, width)]
        wrr_picks = [t.ptid for t in wrr.select(issueable, width)]
        assert rr_picks == wrr_picks
        assert rr._next % len(issueable) == wrr._next % len(issueable)
