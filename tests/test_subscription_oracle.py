"""``WatchBus.subscribe`` against the re-arming subscription it replaced.

A subscription is one persistent entry (``repro.mem.watch.Subscription``)
that moves itself to the back of its line's wake order on each delivery
and, under a directory, leaves and rejoins the line's sharer set. The
oracle in ``tests/watch_reference.py`` cancels the watch that fired and
arms a new one instead. Driven through the same scenario -- flat or
directory bus; subscriptions, looping ``monitor`` units and plain
watches sharing lines; timed stores, arms and cancels; callbacks that
write other lines -- both must produce the same callback log (time,
order, info), ``total_triggers``, directory counters and sharer order.

Two cases differ on purpose, both writes the re-arming version drops
and the persistent entry delivers. Under a directory, a write that
lands while the forward of an earlier write to the same subscriber is
in flight (labelled in the property). On any bus, a write made from
inside a delivery to the same line reaches a subscriber later in the
wake order first; the re-arming version then drops the outer write to
it. The property's callbacks write only lines nobody subscribes to.
"""

from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import pytest

from repro import build_machine
from repro.arch.costs import CostModel
from repro.coherence.directory import DirectoryModel
from repro.experiments import get_experiment
from repro.hw.monitor import MonitorUnit
from repro.mem.watch import LINE_BYTES, WatchBus
from repro.sim.engine import Engine
from tests.watch_reference import rearming_subscriptions

#: lines subscriptions, watches and monitors share
SHARED_LINES = (0, 1, 2)
#: lines only subscription callbacks write to. Nothing subscribes to
#: them, so no callback writes a subscribed line from inside a delivery
ECHO_LINES = (3, 4)
#: store spacing: longer than any forward, so no write lands while a
#: forward to the same line is in flight (except the drawn overlap)
GAP = 200
#: the shortest directory forward (sharer 0): forward + disarm cycles
MIN_FORWARD = CostModel().dir_forward_cycles + CostModel().dir_disarm_cycles

@st.composite
def _entries(draw, store_times):
    # any time, or one just after a store: inside its forwards
    time = st.integers(min_value=0, max_value=13 * GAP) | st.builds(
        int.__add__, st.sampled_from(store_times),
        st.integers(min_value=0, max_value=2 * MIN_FORWARD))
    kind = draw(st.sampled_from(["sub", "watch", "monitor"]))
    line = draw(st.sampled_from(SHARED_LINES))
    arm = draw(time)
    cancel = draw(st.none() | time.map(lambda t: max(t, arm)))
    extra = None
    if kind == "sub":
        extra = draw(st.none() | st.sampled_from(ECHO_LINES))
    elif kind == "watch":
        extra = draw(st.none() | st.sampled_from(SHARED_LINES + ECHO_LINES))
    return kind, line, arm, cancel, extra


@st.composite
def _scenarios(draw):
    slots = draw(st.lists(st.integers(min_value=1, max_value=12),
                          min_size=1, max_size=10, unique=True))
    stores = [(slot * GAP, draw(st.sampled_from(SHARED_LINES * 2
                                                + ECHO_LINES)), slot)
              for slot in sorted(slots)]
    entries = draw(st.lists(_entries([time for time, _, _ in stores]),
                            min_size=1, max_size=8))
    # two writes to one line, the second inside the first's shortest
    # forward, after every other store
    overlap = draw(st.none() | st.tuples(
        st.sampled_from(SHARED_LINES),
        st.integers(min_value=0, max_value=MIN_FORWARD - 1)))
    return entries, stores, overlap


#: when the overlapping writes land, and the values they carry
OVERLAP_AT = 14 * GAP
OVERLAP_VALUES = (9001, 9002)


def _run(scenario, coherence):
    """Play ``scenario``; return everything the two versions must agree
    on, and the values a probe subscriber on the overlap line got."""
    entries, stores, overlap = scenario
    engine = Engine()
    bus = WatchBus()
    directory = None
    if coherence == "directory":
        directory = bus.coherence = DirectoryModel(CostModel(), engine)
    log = []
    received = {}

    def subscriber(index, echo):
        budget = [2]
        received[index] = []

        def on_write(info):
            log.append((engine.now, "sub", index, info["addr"],
                        info["value"], info["source"]))
            received[index].append(info["value"])
            if echo is not None and budget[0]:
                budget[0] -= 1
                bus.notify(echo * LINE_BYTES + 8, info["value"] + 1000,
                           f"echo{index}")
        return on_write

    def start(index, kind, line, cancel, extra):
        addr = line * LINE_BYTES
        owner = (kind, index)
        if kind == "sub":
            stop = bus.subscribe(addr, subscriber(index, extra), owner=owner)
        elif kind == "watch":
            # a plain watch logs every trigger while armed; it keeps
            # its place in the wake order
            watch = bus.watch([addr] if extra is None
                              else [addr, extra * LINE_BYTES], owner=owner)

            def on_trigger(info):
                log.append((engine.now, "watch", index, info["addr"],
                            info["value"], info["source"]))
                watch.signal.add_waiter(on_trigger)

            watch.signal.add_waiter(on_trigger)
            stop = watch.cancel
        else:
            # a looping mwait-er: each wakeup consumes the armed set and
            # re-arms it
            unit = MonitorUnit(bus, owner=owner)

            def on_wakeup(info):
                log.append((engine.now, "monitor", index, info["addr"],
                            info["value"], info["source"]))
                unit.consume_wakeup()
                unit.arm(addr)

            unit.on_wakeup = on_wakeup
            unit.arm(addr)
            stop = unit.cancel
        if cancel is not None:
            engine.at(cancel, stop)

    for index, (kind, line, arm, cancel, extra) in enumerate(entries):
        engine.at(arm, start, index, kind, line, cancel, extra)
    for time, line, value in stores:
        engine.at(time, bus.notify, line * LINE_BYTES, value, "w")
    probe = len(entries)
    if overlap is not None:
        # a subscriber armed throughout, and two writes to its line
        line, delay = overlap
        engine.at(0, start, probe, "sub", line, None, None)
        for time, value in zip((OVERLAP_AT, OVERLAP_AT + delay),
                               OVERLAP_VALUES):
            engine.at(time, bus.notify, line * LINE_BYTES, value, "w")
    engine.run()
    outcome = {"log": log, "now": engine.now,
               "notifications": bus.total_notifications,
               "triggers": bus.total_triggers,
               "wake_order": {line: [entry.owner for entry in watchers]
                              for line, watchers in bus._line_watches.items()}}
    if directory is not None:
        outcome["directory"] = dict(
            vars(directory), engine=None,
            _sharers={line: [entry.owner for entry in sharers]
                      for line, sharers in directory._sharers.items()})
    return outcome, received.get(probe)


def _both(scenario, coherence):
    new = _run(scenario, coherence)
    with rearming_subscriptions():
        old = _run(scenario, coherence)
    return new, old


@given(scenario=_scenarios(),
       coherence=st.sampled_from(["flat", "directory"]))
# a subscription cancelled while a forward to it is in flight
@example(scenario=([("sub", 0, 0, 210, None)], [(200, 0, 1)], None),
         coherence="directory")
# a subscription and a plain watch on one line swap places
@example(scenario=([("sub", 0, 0, None, None), ("watch", 0, 0, None, None)],
                   [(200, 0, 1), (400, 0, 2)], None),
         coherence="flat")
@settings(max_examples=150, deadline=None)
def test_persistent_subscription_matches_rearming(scenario, coherence):
    (new, new_probe), (old, old_probe) = _both(scenario, coherence)
    if scenario[2] is not None and coherence == "directory":
        event("write inside a forward")
        # identical up to the overlap; then the persistent entry
        # delivers both writes and the re-arming version loses one to
        # the watch it cancelled
        before = [entry for entry in new["log"] if entry[0] < OVERLAP_AT]
        assert before == [entry for entry in old["log"]
                          if entry[0] < OVERLAP_AT]
        assert sorted(set(new_probe) & set(OVERLAP_VALUES)) == \
            list(OVERLAP_VALUES)
        assert len(set(old_probe) & set(OVERLAP_VALUES)) == 1
        return
    assert new == old


def _mailbox_probe():
    """The write-inside-a-forward case on a directory machine: DMA
    stores at t=10, 11 and 200; each forward takes 24 cycles."""
    machine = build_machine(coherence="directory")
    box = machine.alloc("box", 64)
    seen = []
    machine.memory.watch_bus.subscribe(
        box.base, lambda info: seen.append((machine.engine.now,
                                            info["value"])))
    for time, value in ((10, 1), (11, 2), (200, 3)):
        machine.engine.at(time, machine.memory.store, box.base, value,
                          "dma:probe")
    machine.run()
    return seen


def test_a_write_inside_a_forward_is_delivered():
    assert _mailbox_probe() == [(34, 1), (35, 2), (224, 3)]
    with rearming_subscriptions():
        assert _mailbox_probe() == [(34, 1), (224, 3)]


def _nested_probe():
    bus = WatchBus()
    log = []

    def first(info):
        log.append(("first", info["value"]))
        if info["value"] == 1:
            bus.notify(0, 2, "nested")

    bus.subscribe(0, first)
    bus.subscribe(0, lambda info: log.append(("second", info["value"])))
    bus.notify(0, 1, "outer")
    return log


def test_a_write_from_inside_a_delivery_reaches_every_subscriber():
    assert _nested_probe() == [("first", 1), ("second", 2), ("first", 2),
                               ("second", 1)]
    with rearming_subscriptions():
        assert _nested_probe() == [("first", 1), ("second", 2),
                                   ("first", 2)]


#: every experiment whose runs subscribe: device drivers, the
#: multi-guest hypervisor (E08), instrumentation, the ISA backend
#: (E15, and E16 with request spans)
@pytest.mark.parametrize("experiment_id",
                         ["E02", "E03", "E08", "E11", "E15", "E16", "E17"])
def test_quick_json_identical_with_rearming_subscriptions(experiment_id,
                                                          quick_results):
    with rearming_subscriptions():
        rearmed = get_experiment(experiment_id).run(quick=True).to_json()
    assert quick_results[experiment_id].to_json() == rearmed
