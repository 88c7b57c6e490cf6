"""Claimed rounds vs yielded rounds must be indistinguishable.

An issue loop that the engine resumed from its step lane claims its
next round in place (``Engine.claim``) when no live event in either
lane is due at or before it, within the running ``run()``'s ``until``
and ``max_events``. The claim counts as a dispatched event, so nothing
may tell the two apart: not the results, not ``events_processed``, not
the trace stream, not the profiler. These tests run each workload as
shipped and under the ``no_claims()`` oracle
(``tests/naive_reference.py``), where every round is yielded to the
engine, and diff everything.
"""

import json

import pytest

import repro.obs as obs
from repro import build_machine
from repro.cluster import DESIGNS
from repro.cluster.run import build_cluster, drive_workload, summarize_run
from repro.experiments.e14_cluster import _base_config
from repro.experiments.e18_dispatch import _dispatch_cell
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.naive_reference import no_claims
from tests.test_cluster_event_counts import DEFAULT_SEED, ISA_CASES
from tests.test_fastforward_equivalence import (
    _run_contended,
    _run_contended_priority,
    _run_lone_mixed,
    _run_multicore,
    _run_unequal_bursts,
    _run_uncontended_priority,
    _thread_fingerprint,
)


def _claimed_and_yielded(workload, *args, **kwargs):
    claimed = workload(*args, **kwargs)
    with no_claims():
        yielded = workload(*args, **kwargs)
    return claimed, yielded


def _machine_view(machine):
    """Everything a machine run exposes, events included."""
    ptids = range(machine.config.hw_threads_per_core)
    view = {
        "now": machine.engine.now,
        "events": machine.engine.events_processed,
        "stats": machine.stats(),
        "threads": [_thread_fingerprint(machine, ptids, core_id)
                    for core_id in range(machine.config.cores)],
        "trace": list(machine.tracer.events),
    }
    if machine.obs is not None:
        view["profile"] = machine.obs.profiler.snapshot(machine.engine.now)
    return view


def _run_cross_core_wake(instrument: bool = False):
    """Core 0 idles with its only thread in ``mwait`` until core 1's
    store lands mid-round: core 0's loop then resumes from its wake
    signal nested inside core 1's issue, which must finish at the
    store's cycle before either core moves the clock."""
    machine = build_machine(cores=2, hw_threads_per_core=2, smt_width=1,
                            instrument=instrument, trace=True)
    box = machine.alloc("box", 64)
    machine.load_asm(0, """
        movi r1, BOX
        monitor r1
        mwait
        ld r2, r1, 0
        addi r2, r2, 1
        st r1, 8, r2
        halt
    """, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(0)
    machine.load_asm(0, """
        work 300
        movi r1, BOX
        movi r2, 41
        st r1, 0, r2
        addi r3, r2, 1
        addi r3, r3, 1
        halt
    """, core_id=1, symbols={"BOX": box.base}, supervisor=True)
    machine.boot(0, core_id=1)
    machine.run()
    return machine


def _instrumented(workload):
    def run():
        return workload(instrument=True)
    run.__name__ = workload.__name__ + "-instrumented"
    return run


@pytest.mark.parametrize("workload", [
    _run_lone_mixed, _instrumented(_run_lone_mixed),
    _run_contended, _instrumented(_run_contended),
    _run_multicore, _instrumented(_run_multicore),
    _run_cross_core_wake, _instrumented(_run_cross_core_wake),
    _instrumented(_run_unequal_bursts),
    _run_uncontended_priority, _run_contended_priority,
], ids=lambda workload: workload.__name__)
def test_fast_forward_workloads_match_without_claims(workload):
    claimed, yielded = _claimed_and_yielded(workload)
    assert _machine_view(claimed) == _machine_view(yielded)


@pytest.mark.parametrize("traced", [False, True])
def test_e18_dispatch_cell_matches_without_claims(traced):
    claimed, yielded = _claimed_and_yielded(_dispatch_cell, traced, 60)
    assert claimed == yielded


def _cluster_isa_run(design, coherence):
    """One run of the benchmark's ``cluster_isa`` shape, instrumented:
    every node a Machine, random routing over 4 nodes, fanout 2."""
    config = _base_config(nodes=4, fanout=2, policy="random", backend="isa",
                          design=DESIGNS[design], coherence=coherence,
                          requests=40)
    with obs.session("claims") as session:
        streams = RngStreams(DEFAULT_SEED)
        service = build_cluster(config, streams)
        drive_workload(service, config, streams)
        service.engine.run(until=config.horizon())
    return {
        "summary": summarize_run(service),
        "latency": service.recorder.summary().as_dict(),
        "events": service.engine.events_processed,
        "now": service.engine.now,
        "retired": [node.server.machine.core(0).instructions_retired
                    for node in service.nodes],
        "snapshot": json.dumps(session.snapshot(), sort_keys=True),
        "timeline": json.dumps(session.chrome_trace(), sort_keys=True),
    }


@pytest.mark.parametrize("design,coherence", sorted(ISA_CASES))
def test_cluster_isa_run_matches_without_claims(design, coherence):
    """Also the exact engine work of ``cluster_isa`` (pinned in
    ``tests/test_cluster_event_counts.py``), checked on the claimed run."""
    claimed, yielded = _claimed_and_yielded(_cluster_isa_run, design,
                                            coherence)
    assert claimed["summary"]["conserved"]
    assert claimed["summary"]["completed"] == 40
    assert (claimed["events"], sum(claimed["retired"])) == \
        ISA_CASES[design, coherence]
    assert claimed == yielded


#: a lone thread that steps one instruction per round: an unfused
#: (traced) loop of single-cycle ALU ops and branches
LOOP = """
    movi r1, 0
    movi r2, 40
loop:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
"""


def _stepping_machine():
    machine = build_machine(cores=1, hw_threads_per_core=2, trace=True)
    machine.load_asm(0, LOOP, supervisor=True)
    machine.boot(0)
    return machine


def test_claimed_rounds_are_taken(monkeypatch):
    """A lone stepping core issues 83 instructions, one per round. The
    round after its kick-off (a main-queue resume) is yielded to the
    step lane; each later round is claimed, and still counted."""
    scheduled = []
    at_step = Engine.at_step

    def counting(engine, time, fn, *args):
        scheduled.append(time)
        return at_step(engine, time, fn, *args)

    monkeypatch.setattr(Engine, "at_step", counting)
    machine = _stepping_machine()
    machine.run()
    assert machine.thread(0).instructions_executed == 83
    assert machine.engine.events_processed == 84
    assert scheduled == [1]
    with no_claims():
        _stepping_machine().run()
    assert len(scheduled) == 1 + 83


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 25])
def test_max_events_bounds_claims(budget):
    """``run(max_events=n)`` over a stepping core processes exactly n
    events, claims included, and the run resumes where it stopped."""
    machine = _stepping_machine()
    engine = machine.engine
    clocks = []
    while engine.pending_events:
        before = engine.events_processed
        engine.run(max_events=budget)
        done = engine.events_processed - before
        assert done == budget or (done < budget
                                  and not engine.pending_events)
        clocks.append(engine.now)
    with no_claims():
        reference = _stepping_machine()
        reference.run()
    assert _machine_view(machine) == _machine_view(reference)
    assert len(clocks) == -(-reference.engine.events_processed // budget)


@pytest.mark.parametrize("stop", [1, 2, 5, 33, 80])
def test_until_bounds_claims(stop):
    """``run(until=t)`` over a stepping core leaves the clock at t, and
    the run resumes where it stopped."""
    machine = _stepping_machine()
    engine = machine.engine
    engine.run(until=stop)
    assert engine.now == stop
    retired = machine.thread(0).instructions_executed
    assert 0 < retired <= stop + 1
    engine.run()
    with no_claims():
        reference = _stepping_machine()
        reference.run()
    assert _machine_view(machine) == _machine_view(reference)


@pytest.mark.parametrize("offset", [1, 2, 3, 17])
def test_an_equal_time_event_runs_before_the_round(offset):
    """An engine event due at the very cycle of a core's next round was
    scheduled first, so it runs first and sees the round not yet
    issued; a claim must not overtake it. (At cycle 0 the core's
    kick-off was scheduled first.)"""
    def run():
        machine = _stepping_machine()
        seen = []

        def observe():
            seen.append((machine.engine.now,
                         machine.thread(0).instructions_executed))
        for time in range(offset, 60, 5):
            machine.engine.at(time, observe)
        machine.run()
        return seen, _machine_view(machine)

    claimed, yielded = _claimed_and_yielded(run)
    assert claimed == yielded
    # each observer at cycle t sees the t instructions of cycles 0..t-1
    assert all(count == time for time, count in claimed[0])
