"""Property tests for watch-line aliasing and one-shot semantics.

Watches are line-granular (64 B), so distinct addresses alias onto one
watch iff they share a line -- including addresses that land on
opposite sides of a line boundary. The properties below hold with the
flat bus, the zero-cost directory and the priced one, which is itself
a property worth pinning: the directory defers delivery but never changes *who*
wakes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.costs import CostModel
from repro.coherence import DirectoryModel
from repro.mem.watch import LINE_BYTES, WatchBus
from repro.sim.engine import Engine
from tests.null_directory import null_directory

COSTS = CostModel()
MODELS = st.sampled_from(["off", "null", "directory"])
ADDRS = st.integers(min_value=0, max_value=64 * LINE_BYTES - 1)


def _bus(model: str, engine=None):
    bus = WatchBus()
    if model == "null":
        bus.coherence = null_directory(engine)
    elif model == "directory":
        bus.coherence = DirectoryModel(COSTS, engine)
    return bus


def _drain(engine):
    if engine is not None:
        engine.run()


class TestLineAliasing:
    @given(watched=ADDRS, written=ADDRS, model=MODELS)
    @settings(max_examples=60, deadline=None)
    def test_trigger_iff_same_line(self, watched, written, model):
        engine = Engine()
        bus = _bus(model, engine)
        watch = bus.watch(watched)
        fired = []
        watch.signal.add_waiter(fired.append)
        bus.notify(written, 1)
        _drain(engine)
        same_line = watched // LINE_BYTES == written // LINE_BYTES
        assert bool(fired) == same_line
        assert watch.covers(written) == same_line

    @given(addr=ADDRS, span=st.integers(min_value=1, max_value=200),
           model=MODELS)
    @settings(max_examples=60, deadline=None)
    def test_span_watches_both_boundary_lines(self, addr, span, model):
        """A buffer spanning a line boundary needs (and gets) a watch
        on every line it touches -- writes to either end wake."""
        engine = Engine()
        bus = _bus(model, engine)
        last = addr + span - 1
        watch = bus.watch([addr, last])
        fired = []
        watch.signal.add_waiter(fired.append)
        bus.notify(last, 1)
        _drain(engine)
        assert fired                        # the far end always wakes
        lines = {addr // LINE_BYTES, last // LINE_BYTES}
        assert watch.lines == lines
        if bus.coherence is not None:
            assert bus.coherence.lines_tracked() == len(lines)

    @given(addr=ADDRS, model=MODELS)
    @settings(max_examples=30, deadline=None)
    def test_one_shot_per_arm(self, addr, model):
        """A watch fires at most once per arm even under repeated
        writes (mwait consumes the arm; only re-arming re-waits)."""
        engine = Engine()
        bus = _bus(model, engine)
        watch = bus.watch(addr)
        fired = []
        watch.signal.add_waiter(
            lambda info: (fired.append(info), watch.cancel()))
        for _ in range(3):
            bus.notify(addr, 1)
        _drain(engine)
        assert len(fired) == 1


class TestCancelWhilePending:
    @given(addr=ADDRS, cancel_delay=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_cancel_races_the_forward(self, addr, cancel_delay):
        """With the directory deferring delivery, a cancel issued any
        time before the forward lands suppresses the wakeup; a cancel
        after it lands is a harmless no-op. There is no window where a
        cancelled watch still fires."""
        engine = Engine()
        bus = _bus("directory", engine)
        watch = bus.watch(addr)
        fired = []
        watch.signal.add_waiter(fired.append)
        engine.at(100, bus.notify, addr, 1, "w")
        engine.at(100 + cancel_delay, watch.cancel)
        engine.run()
        lands_at = 100 + bus.coherence.wakeup_delay(0)
        # same-cycle tie: the engine breaks ties by schedule order, and
        # the cancel event was enqueued at setup time -- before notify's
        # forward existed -- so a cancel at the landing cycle runs first
        # and still suppresses the wakeup (the safe direction: a
        # cancelled watch never fires)
        assert bool(fired) == (100 + cancel_delay > lands_at)
        assert watch.cancel() == 0          # idempotent either way

    @given(addr=ADDRS, writes=st.integers(min_value=1, max_value=4),
           model=MODELS)
    @settings(max_examples=40, deadline=None)
    def test_rearm_after_fire_sees_the_next_write(self, addr, writes, model):
        """Re-arming after each wakeup (the subscribe discipline, and
        what a looping mwait-er does) observes every write exactly
        once, under every model."""
        engine = Engine()
        bus = _bus(model, engine)
        seen = []
        bus.subscribe(addr, seen.append)
        for index in range(writes):
            engine.at(100 * (index + 1), bus.notify, addr, index, "w")
        engine.run()
        assert [info["value"] for info in seen] == list(range(writes))
