"""Unit tests for Clock, Tracer, and RngStreams."""

import pytest

from repro.errors import ConfigError
from repro.sim import Clock, Engine, RngStreams, Tracer


class TestClock:
    def test_default_is_3ghz(self):
        assert Clock().freq_ghz == 3.0

    def test_ns_to_cycles_at_3ghz(self):
        clock = Clock(3.0)
        assert clock.ns_to_cycles(1) == 3
        assert clock.ns_to_cycles(16) == 48

    def test_paper_l2_l3_range_3_to_16ns_is_10_to_50_cycles(self):
        # Section 4: "10 to 50 clock cycles (i.e., 3ns to 16ns for a 3GHz CPU)"
        clock = Clock(3.0)
        assert clock.cycles_to_ns(10) == pytest.approx(3.33, abs=0.1)
        assert clock.cycles_to_ns(50) == pytest.approx(16.67, abs=0.1)

    def test_roundtrip(self):
        clock = Clock(2.5)
        assert clock.cycles_to_ns(clock.ns_to_cycles(100)) == pytest.approx(100)

    def test_us_and_ms(self):
        clock = Clock(1.0)
        assert clock.us_to_cycles(1) == 1000
        assert clock.ms_to_cycles(1) == 1_000_000

    def test_rate_to_interarrival(self):
        clock = Clock(3.0)
        # 1M events/sec at 3GHz -> 3000 cycles apart
        assert clock.rate_to_interarrival_cycles(1e6) == pytest.approx(3000)

    def test_invalid_frequency(self):
        with pytest.raises(ConfigError):
            Clock(0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            Clock().rate_to_interarrival_cycles(0)


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        tracer.emit("cat", "msg")
        assert tracer.events == []

    def test_enabled_records_with_time(self):
        engine = Engine()
        tracer = Tracer(engine, enabled=True)
        engine.after(12, tracer.emit, "irq", "fired")
        engine.run()
        assert len(tracer.events) == 1
        assert tracer.events[0].time == 12
        assert tracer.events[0].category == "irq"

    def test_category_filter(self):
        tracer = Tracer(enabled=True, categories={"keep"})
        tracer.emit("keep", "a")
        tracer.emit("drop", "b")
        assert [e.category for e in tracer.events] == ["keep"]

    def test_limit_drops(self):
        tracer = Tracer(enabled=True, limit=2)
        for i in range(5):
            tracer.emit("c", str(i))
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_filter_and_clear(self):
        tracer = Tracer(enabled=True)
        tracer.emit("a", "1")
        tracer.emit("b", "2")
        assert len(tracer.filter("a")) == 1
        tracer.clear()
        assert tracer.events == []


class TestRngStreams:
    def test_same_name_same_stream(self):
        rngs = RngStreams(1)
        assert rngs.stream("x") is rngs.stream("x")

    def test_streams_are_independent_of_creation_order(self):
        a = RngStreams(42)
        b = RngStreams(42)
        _ = a.stream("first")  # extra stream must not perturb "arrivals"
        seq_a = [a.stream("arrivals").random() for _ in range(5)]
        seq_b = [b.stream("arrivals").random() for _ in range(5)]
        assert seq_a == seq_b

    def test_different_names_differ(self):
        rngs = RngStreams(7)
        assert rngs.stream("a").random() != rngs.stream("b").random()

    def test_different_seeds_differ(self):
        assert (
            RngStreams(1).stream("s").random()
            != RngStreams(2).stream("s").random()
        )

    def test_reseed_clears(self):
        rngs = RngStreams(1)
        first = rngs.stream("s").random()
        rngs.reseed(1)
        assert rngs.stream("s").random() == first
