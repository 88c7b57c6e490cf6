"""Tests for the tracer."""

from repro.sim.engine import Engine
from repro.sim.trace import TraceEvent, Tracer


def make_tracer(**kwargs):
    return Tracer(Engine(), **kwargs)


class TestTracer:
    def test_disabled_by_default(self):
        tracer = make_tracer()
        tracer.emit("issue", "x")
        assert tracer.events == []

    def test_enabled_records_with_time(self):
        engine = Engine()
        tracer = Tracer(engine, enabled=True)
        engine.at(50, tracer.emit, "issue", "tick")
        engine.run()
        assert len(tracer.events) == 1
        assert tracer.events[0].time == 50
        assert tracer.events[0].category == "issue"

    def test_category_filter(self):
        tracer = make_tracer(enabled=True, categories={"exception"})
        tracer.emit("issue", "ignored")
        tracer.emit("exception", "kept")
        assert [e.category for e in tracer.events] == ["exception"]

    def test_payload_captured(self):
        tracer = make_tracer(enabled=True)
        tracer.emit("issue", "x", cost=5, ptid=3)
        assert tracer.events[0].payload == {"cost": 5, "ptid": 3}

    def test_limit_drops_and_counts(self):
        tracer = make_tracer(enabled=True, limit=2)
        for i in range(5):
            tracer.emit("c", f"e{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_filter_by_category(self):
        tracer = make_tracer(enabled=True)
        tracer.emit("a", "1")
        tracer.emit("b", "2")
        tracer.emit("a", "3")
        assert len(tracer.filter("a")) == 2

    def test_clear_resets_everything(self):
        tracer = make_tracer(enabled=True, limit=1)
        tracer.emit("a", "1")
        tracer.emit("a", "2")
        tracer.clear()
        assert tracer.events == []
        assert tracer.dropped == 0

    def test_dump_truncates(self):
        tracer = make_tracer(enabled=True)
        for i in range(10):
            tracer.emit("c", f"e{i}")
        dump = tracer.dump(max_lines=3)
        assert "7 more events" in dump

    def test_event_str_format(self):
        event = TraceEvent(42, "issue", "hello", {"k": 1})
        text = str(event)
        assert "42" in text and "issue" in text and "hello" in text

    def test_drop_accounting_invariant_with_categories(self):
        # len(events) + dropped == true emit count for SELECTED
        # categories; deselected categories never count as dropped
        tracer = make_tracer(enabled=True, categories={"keep"}, limit=2)
        for i in range(4):
            tracer.emit("keep", f"k{i}")
            tracer.emit("skip", f"s{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 2
        assert len(tracer.events) + tracer.dropped == 4


class TestMachineTracing:
    def test_machine_trace_captures_issues_and_exceptions(self):
        from repro.machine import build_machine
        machine = build_machine(trace=True)
        edp = machine.alloc("edp", 64)
        machine.load_asm(0, """
            movi r1, 1
            movi r2, 0
            div r3, r1, r2
            halt
        """, supervisor=True, edp=edp.base)
        machine.boot(0)
        machine.run(until=10_000)
        assert machine.tracer.filter("issue")
        assert machine.tracer.filter("exception")
